// Package core holds the behavioural property tests of the compile
// pipeline: determinism, cause attribution, replication never worsening
// the II, heterogeneous machines. The alias package they were written
// against is gone (every caller uses internal/pipeline directly); the
// tests stay at this import path because their names are pinned there.
package core

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

func randomLoop(rng *rand.Rand, n int) *ddg.Graph {
	b := ddg.NewBuilder("rand")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Node("", ops[rng.Intn(len(ops))])
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.Edge(ids[rng.Intn(i)], ids[i], 0)
		}
	}
	if rng.Intn(3) == 0 {
		b.Edge(ids[n-1], ids[rng.Intn(n-1)], 1+rng.Intn(2))
	}
	st := b.Node("", ddg.OpStore)
	b.Edge(ids[n-1], st, 0)
	return b.MustBuild()
}

func TestCompileUnifiedHitsMII(t *testing.T) {
	// On the unified machine with plenty of resources, simple loops
	// schedule at the MII.
	b := ddg.NewBuilder("simple")
	l := b.Node("l", ddg.OpLoad)
	a := b.Node("a", ddg.OpFAdd)
	s := b.Node("s", ddg.OpStore)
	b.Edge(l, a, 0)
	b.Edge(a, s, 0)
	g := b.MustBuild()
	r, err := pipeline.Compile(g, machine.Unified(64), pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.II != r.MII {
		t.Errorf("II = %d, MII = %d", r.II, r.MII)
	}
	if r.Comms != 0 {
		t.Errorf("unified compile has %d comms", r.Comms)
	}
}

func TestReplicationNeverWorsensII(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	configs := []machine.Config{
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		machine.MustParse("4c2b4l64r"),
	}
	for trial := 0; trial < 60; trial++ {
		g := randomLoop(rng, 6+rng.Intn(28))
		m := configs[trial%len(configs)]
		base, err := pipeline.Compile(g, m, pipeline.Options{VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d baseline: %v", trial, err)
		}
		repl, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d replication: %v", trial, err)
		}
		if repl.II > base.II {
			t.Errorf("trial %d on %s: replication worsened II %d -> %d",
				trial, m, base.II, repl.II)
		}
		if repl.II < repl.MII {
			t.Errorf("trial %d: II %d below MII %d", trial, repl.II, repl.MII)
		}
		if repl.Comms > base.Comms && repl.II >= base.II {
			t.Errorf("trial %d: replication raised comms %d -> %d without II gain",
				trial, base.Comms, repl.Comms)
		}
	}
}

func TestCauseAttributionBusBound(t *testing.T) {
	// Many independent producer/consumer pairs forced across clusters: the
	// baseline's II increases should be bus-caused.
	b := ddg.NewBuilder("busbound")
	for i := 0; i < 10; i++ {
		u := b.Node("", ddg.OpIAdd)
		v := b.Node("", ddg.OpFMul)
		w := b.Node("", ddg.OpFMul)
		b.Edge(u, v, 0)
		b.Edge(u, w, 0)
	}
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	r, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.II == r.MII {
		t.Skip("loop scheduled at MII; no causes to attribute")
	}
	bus := r.IIIncreases[pipeline.CauseBus]
	total := 0
	for _, n := range r.IIIncreases {
		total += n
	}
	if bus == 0 || bus*2 < total {
		t.Errorf("bus causes %d of %d increases; expected bus-dominated (increases: %v)",
			bus, total, r.IIIncreases)
	}
}

func TestZeroBusLatencyNeverLongerSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 30; trial++ {
		g := randomLoop(rng, 8+rng.Intn(20))
		norm, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, ZeroBusLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		// The zero-latency upper bound should not lose on the II — except
		// through register pressure: delivering values with zero latency
		// starts their lifetimes earlier, which can legitimately push a
		// cluster past its register file where the real machine squeaked by.
		if zero.II > norm.II && zero.IIIncreases[pipeline.CauseRegisters] <= norm.IIIncreases[pipeline.CauseRegisters] {
			t.Errorf("trial %d: zero-bus-latency II %d > %d without register cause (%v vs %v)",
				trial, zero.II, norm.II, zero.IIIncreases, norm.IIIncreases)
		}
	}
}

func TestSpeedupModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomLoop(rng, 20)
	m := machine.MustParse("4c1b2l64r")
	base, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	s := repl.Speedup(base, 100)
	if s < 1.0-1e-9 {
		t.Errorf("replication slowdown %v", s)
	}
}

func TestCompileDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomLoop(rng, 24)
	m := machine.MustParse("4c2b2l64r")
	r1, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.II != r2.II || r1.Length != r2.Length || r1.Comms != r2.Comms {
		t.Errorf("nondeterministic compile: (%d,%d,%d) vs (%d,%d,%d)",
			r1.II, r1.Length, r1.Comms, r2.II, r2.Length, r2.Comms)
	}
}

func TestMacroAblationCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 20; trial++ {
		g := randomLoop(rng, 10+rng.Intn(16))
		r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, UseMacroReplication: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if r.II < r.MII {
			t.Fatalf("trial %d: II below MII", trial)
		}
	}
}

func TestLengthReplicationOptionCompiles(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 20; trial++ {
		g := randomLoop(rng, 10+rng.Intn(16))
		r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, LengthReplicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.II > base.II {
			t.Errorf("trial %d: length replication worsened II %d -> %d", trial, base.II, r.II)
		}
	}
}
