package core

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/vliwsim"
)

// heteroMachine builds the asymmetric 2-cluster machine used by the
// heterogeneous tests: an integer/address cluster and an FP cluster, each
// with a memory port.
func heteroMachine(t *testing.T) machine.Config {
	t.Helper()
	m, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{3, 1, 2}, // mostly integer
		{1, 3, 2}, // mostly FP
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHeterogeneousCompilePlacesByCapability(t *testing.T) {
	// An fp-heavy loop: the partitioner must put most FP work on the FP
	// cluster or the induced II explodes.
	b := ddg.NewBuilder("fpheavy")
	idx := b.Node("idx", ddg.OpIAdd)
	b.Edge(idx, idx, 1)
	for c := 0; c < 3; c++ {
		ld := b.Node("", ddg.OpLoad)
		b.Edge(idx, ld, 0)
		prev := ld
		for k := 0; k < 4; k++ {
			v := b.Node("", ddg.OpFMul)
			b.Edge(prev, v, 0)
			prev = v
		}
		st := b.Node("", ddg.OpStore)
		b.Edge(prev, st, 0)
		b.Edge(idx, st, 0)
	}
	g := b.MustBuild()
	m := heteroMachine(t)
	r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, VerifySchedules: true})
	if err != nil {
		t.Fatal(err)
	}
	counts := r.Placement.ClassCounts()
	// The FP cluster (1) must hold more FP instances than the int cluster.
	if counts[1][ddg.ClassFP] < counts[0][ddg.ClassFP] {
		t.Errorf("FP split %d/%d favors the integer cluster",
			counts[0][ddg.ClassFP], counts[1][ddg.ClassFP])
	}
	if err := vliwsim.Check(r.Schedule, 6); err != nil {
		t.Fatal(err)
	}
}

func TestHeterogeneousRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := heteroMachine(t)
	for trial := 0; trial < 25; trial++ {
		g := randomLoop(rng, 6+rng.Intn(18))
		base, err := pipeline.Compile(g, m, pipeline.Options{VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		repl, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if repl.II > base.II {
			t.Errorf("trial %d: replication worsened II on hetero machine", trial)
		}
		if err := vliwsim.Check(repl.Schedule, 5); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestHeterogeneousZeroCapabilityClusterNeverUsed(t *testing.T) {
	m, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{4, 0, 2}, // no FP capability at all
		{0, 4, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 15; trial++ {
		g := randomLoop(rng, 6+rng.Intn(16))
		r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		counts := r.Placement.ClassCounts()
		if counts[0][ddg.ClassFP] != 0 {
			t.Errorf("trial %d: %d FP instances on the FP-less cluster", trial, counts[0][ddg.ClassFP])
		}
		if counts[1][ddg.ClassInt] != 0 {
			t.Errorf("trial %d: %d int instances on the int-less cluster", trial, counts[1][ddg.ClassInt])
		}
	}
}
