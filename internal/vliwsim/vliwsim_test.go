package vliwsim_test

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/pipeline"
	"clusched/internal/replic"
	"clusched/internal/sched"
	"clusched/internal/vliwsim"
	"clusched/internal/workload"
)

func saxpy(t *testing.T) *ddg.Graph {
	t.Helper()
	b := ddg.NewBuilder("saxpy")
	idx := b.Node("idx", ddg.OpIAdd)
	b.Edge(idx, idx, 1)
	x := b.Node("x", ddg.OpLoad)
	y := b.Node("y", ddg.OpLoad)
	b.Edge(idx, x, 0)
	b.Edge(idx, y, 0)
	m := b.Node("m", ddg.OpFMul)
	a := b.Node("a", ddg.OpFAdd)
	s := b.Node("s", ddg.OpStore)
	b.Edge(x, m, 0)
	b.Edge(m, a, 0)
	b.Edge(y, a, 0)
	b.Edge(a, s, 0)
	b.Edge(idx, s, 0)
	return b.MustBuild()
}

func TestReferenceDeterministic(t *testing.T) {
	g := saxpy(t)
	a := vliwsim.Reference(g, 5)
	b := vliwsim.Reference(g, 5)
	if !a.Equal(b) {
		t.Fatal("reference evaluation not deterministic")
	}
	if len(a.Stores) != 5 {
		t.Fatalf("%d stores, want 5", len(a.Stores))
	}
	// Different iterations must store different values (loads depend on
	// the iteration).
	if a.Stores[0].Value == a.Stores[1].Value {
		t.Error("iterations 0 and 1 stored identical values")
	}
}

func TestExecuteMatchesReferenceUnified(t *testing.T) {
	g := saxpy(t)
	m := machine.Unified(64)
	r, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := vliwsim.Check(r.Schedule, 8); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteMatchesReferenceClustered(t *testing.T) {
	g := saxpy(t)
	m := machine.MustParse("4c1b2l64r")
	for _, opts := range []pipeline.Options{{}, {Replicate: true}} {
		r, err := pipeline.Compile(g, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := vliwsim.Check(r.Schedule, 8); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
	}
}

func TestReplicationPreservesSemanticsOnFig3Style(t *testing.T) {
	// A broadcast loop where replication definitely fires: compare traces
	// of baseline and replicated schedules against the reference.
	b := ddg.NewBuilder("bcast")
	i0 := b.Node("i0", ddg.OpIAdd)
	b.Edge(i0, i0, 1)
	i1 := b.Node("i1", ddg.OpIAdd)
	b.Edge(i0, i1, 0)
	for c := 0; c < 4; c++ {
		ld := b.Node("", ddg.OpLoad)
		b.Edge(i1, ld, 0)
		f := b.Node("", ddg.OpFMul)
		b.Edge(ld, f, 0)
		b.Edge(i0, f, 0)
		st := b.Node("", ddg.OpStore)
		b.Edge(f, st, 0)
		b.Edge(i1, st, 0)
	}
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicationSteps == 0 {
		t.Log("warning: replication did not fire on this loop")
	}
	if err := vliwsim.Check(r.Schedule, 10); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteDetectsCorruptedSchedule(t *testing.T) {
	g := saxpy(t)
	m := machine.MustParse("2c1b2l64r")
	r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Schedule
	// Pull a consumer before its producer: the simulator must refuse.
	var victim int32 = -1
	for i := range s.IG.Inst {
		if len(s.IG.In(int32(i))) > 0 && s.Time[i] > 0 {
			victim = int32(i)
		}
	}
	if victim < 0 {
		t.Skip("no victim instance")
	}
	corrupt := *s
	corrupt.Time = append([]int(nil), s.Time...)
	corrupt.Time[victim] = 0
	if _, _, err := vliwsim.Execute(&corrupt, 4); err == nil {
		// The corruption may have landed on an instance with only
		// loop-carried inputs at iteration 0; verify via trace mismatch.
		got, _, _ := vliwsim.Execute(&corrupt, 4)
		if got != nil && got.Equal(vliwsim.Reference(g, 4)) {
			t.Skip("corruption happened to be harmless")
		}
	}
}

func TestRandomLoopsSimulateCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	configs := []machine.Config{
		machine.Unified(64),
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		machine.MustParse("4c1b2l64r"),
	}
	for trial := 0; trial < 40; trial++ {
		m := configs[trial%len(configs)]
		b := ddg.NewBuilder("rand")
		ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
		n := 6 + rng.Intn(20)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = b.Node("", ops[rng.Intn(len(ops))])
		}
		for i := 1; i < n; i++ {
			for k := 0; k < 1+rng.Intn(2); k++ {
				b.Edge(ids[rng.Intn(i)], ids[i], rng.Intn(5)/4) // mostly dist 0, some dist 1
			}
		}
		st := b.Node("", ddg.OpStore)
		b.Edge(ids[n-1], st, 0)
		b.Edge(ids[rng.Intn(n)], st, 0)
		g := b.MustBuild()

		r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: trial%2 == 0})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := vliwsim.Check(r.Schedule, 6); err != nil {
			t.Fatalf("trial %d on %s: %v", trial, m, err)
		}
	}
}

func TestWorkloadLoopsSimulateCorrectly(t *testing.T) {
	// End-to-end: a slice of the actual evaluation workload, baseline and
	// replicated, across two machines.
	if testing.Short() {
		t.Skip("short mode")
	}
	configs := []machine.Config{
		machine.MustParse("4c1b2l64r"),
		machine.MustParse("2c1b2l64r"),
	}
	count := 0
	for _, bench := range []string{"tomcatv", "mgrid", "applu", "fpppp"} {
		loops := workload.LoopsFor(bench)
		for i := 0; i < len(loops) && i < 6; i++ {
			g := loops[i].Graph
			for _, m := range configs {
				for _, opts := range []pipeline.Options{{}, {Replicate: true}} {
					r, err := pipeline.Compile(g, m, opts)
					if err != nil {
						t.Fatalf("%s on %s: %v", g.Name, m, err)
					}
					if err := vliwsim.Check(r.Schedule, 5); err != nil {
						t.Fatalf("%s on %s (repl=%v): %v", g.Name, m, opts.Replicate, err)
					}
					count++
				}
			}
		}
	}
	if count == 0 {
		t.Fatal("no loops checked")
	}
}

func TestLengthReplicationPreservesSemantics(t *testing.T) {
	g := saxpy(t)
	m := machine.MustParse("4c1b2l64r")
	a := partition.Initial(g, m, 4)
	p := sched.NewPlacement(g, a)
	replic.Run(p, m, 4)
	replic.LengthReplicate(p, m, 4, 4)
	for ii := 4; ii < 32; ii++ {
		s, err := sched.ScheduleLoop(p, m, ii, false, sched.Options{})
		if err != nil {
			continue
		}
		if err := vliwsim.Check(s, 7); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no schedulable II found")
}
