// Package integration_test runs the entire stack end to end: loop →
// partition → replication → schedule → verification → execution simulation
// → pipeline expansion → pipeline simulation, on random loops and on
// workload samples, across machine configurations. If any layer mis-wires a
// replica, copy, register or stage, one of the cross-checks here fails.
package integration_test

import (
	"math/rand"
	"testing"

	"clusched/internal/codegen"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/vliwsim"
	"clusched/internal/workload"
)

func randomLoop(rng *rand.Rand, n int) *ddg.Graph {
	b := ddg.NewBuilder("rand")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad, ddg.OpIDiv}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Node("", ops[rng.Intn(len(ops))])
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.Edge(ids[rng.Intn(i)], ids[i], rng.Intn(6)/5)
		}
	}
	if rng.Intn(4) == 0 {
		b.Edge(ids[n-1], ids[rng.Intn(n)], 1+rng.Intn(2))
	}
	nStores := 1 + rng.Intn(2)
	for s := 0; s < nStores; s++ {
		st := b.Node("", ddg.OpStore)
		b.Edge(ids[n-1-s%n], st, 0)
	}
	return b.MustBuild()
}

// fullStack compiles, verifies, executes and expands one loop under one
// configuration and option set.
func fullStack(t *testing.T, g *ddg.Graph, m machine.Config, opts pipeline.Options) {
	t.Helper()
	opts.VerifySchedules = true
	r, err := pipeline.Compile(g, m, opts)
	if err != nil {
		t.Fatalf("%s on %s: %v", g.Name, m, err)
	}
	if r.II < r.MII {
		t.Fatalf("%s: II %d below MII %d", g.Name, r.II, r.MII)
	}
	if err := sched.Verify(r.Schedule); err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	if err := vliwsim.Check(r.Schedule, 6); err != nil {
		t.Fatalf("%s on %s: execution check: %v", g.Name, m, err)
	}
	p, err := codegen.Expand(r.Schedule)
	if err != nil {
		t.Fatalf("%s: expand: %v", g.Name, err)
	}
	if err := p.VerifyAgainstReference(p.SC - 1 + 2*p.MVE); err != nil {
		t.Fatalf("%s on %s: pipeline check: %v", g.Name, m, err)
	}
}

func TestFullStackRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	configs := []machine.Config{
		machine.Unified(64),
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("2c2b4l64r"),
		machine.MustParse("4c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		machine.MustParse("4c2b4l64r"),
		machine.MustParse("4c4b4l64r"),
	}
	optsList := []pipeline.Options{
		{},
		{Replicate: true},
		{Replicate: true, LengthReplicate: true},
		{Replicate: true, UseMacroReplication: true},
	}
	trials := 48
	if testing.Short() {
		trials = 12
	}
	for trial := 0; trial < trials; trial++ {
		g := randomLoop(rng, 5+rng.Intn(22))
		m := configs[trial%len(configs)]
		opts := optsList[trial%len(optsList)]
		fullStack(t, g, m, opts)
	}
}

func TestFullStackWorkloadSample(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	m4 := machine.MustParse("4c1b2l64r")
	m2 := machine.MustParse("2c2b4l64r")
	for _, bench := range workload.Benchmarks() {
		loops := workload.LoopsFor(bench)
		for i := 0; i < 2 && i < len(loops); i++ {
			fullStack(t, loops[i].Graph, m4, pipeline.Options{Replicate: true})
			fullStack(t, loops[i].Graph, m2, pipeline.Options{})
		}
	}
}

func TestReplicationInvariantsAcrossStack(t *testing.T) {
	// For every sampled loop: replication must not increase the II, must
	// not increase communications, and the final comm count must fit the
	// bus at the final II.
	rng := rand.New(rand.NewSource(4096))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 30; trial++ {
		g := randomLoop(rng, 8+rng.Intn(20))
		base, err := pipeline.Compile(g, m, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		repl, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		if repl.II > base.II {
			t.Errorf("trial %d: II %d -> %d", trial, base.II, repl.II)
		}
		if repl.Comms > repl.CommsBeforeReplication {
			t.Errorf("trial %d: comms grew %d -> %d", trial, repl.CommsBeforeReplication, repl.Comms)
		}
		if repl.Comms > m.BusComs(repl.II) {
			t.Errorf("trial %d: %d comms exceed bus capacity %d at II=%d",
				trial, repl.Comms, m.BusComs(repl.II), repl.II)
		}
		if err := repl.Placement.Validate(); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
	}
}

func TestZeroBusLatencyUpperBoundHolds(t *testing.T) {
	// The Fig. 12 upper bound: for equal II the zero-latency schedule is
	// never longer; across the II search it may only lose through register
	// pressure (earlier deliveries lengthen lifetimes).
	rng := rand.New(rand.NewSource(511))
	m := machine.MustParse("4c2b4l64r")
	for trial := 0; trial < 20; trial++ {
		g := randomLoop(rng, 8+rng.Intn(16))
		norm, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, ZeroBusLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		if zero.II == norm.II && zero.Length > norm.Length {
			t.Errorf("trial %d: zero-latency length %d > %d at same II", trial, zero.Length, norm.Length)
		}
	}
}
