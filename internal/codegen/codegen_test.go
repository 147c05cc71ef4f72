package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/vliwsim"
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

func expandFor(t *testing.T, g *ddg.Graph, cfg string, replicate bool) *Program {
	t.Helper()
	m := machine.MustParse(cfg)
	r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: replicate})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Expand(r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExpandStructure(t *testing.T) {
	p := expandFor(t, saxpy(t), "unified", false)
	if p.MVE < 1 {
		t.Fatalf("MVE = %d", p.MVE)
	}
	if len(p.Kernel) != p.MVE*p.II {
		t.Errorf("kernel has %d bundles, want %d", len(p.Kernel), p.MVE*p.II)
	}
	// Kernel op count: every instance appears exactly MVE times.
	ops := 0
	for _, b := range p.Kernel {
		ops += len(b.Ops)
	}
	if want := p.MVE * p.sched.IG.NumInstances(); ops != want {
		t.Errorf("kernel has %d ops, want %d", ops, want)
	}
	if p.RegsUsed[0] == 0 {
		t.Error("no registers allocated")
	}
}

func TestFormatListsSections(t *testing.T) {
	p := expandFor(t, saxpy(t), "2c1b2l64r", true)
	out := p.Format()
	for _, want := range []string{"prolog:", "kernel:", "epilog:", "MVE=", "idx"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted program missing %q", want)
		}
	}
}

func TestSimulateMatchesReferenceUnified(t *testing.T) {
	g := saxpy(t)
	p := expandFor(t, g, "unified", false)
	iters := p.SC - 1 + 3*p.MVE
	got, err := Simulate(p, iters)
	if err != nil {
		t.Fatal(err)
	}
	want := vliwsim.Reference(g, iters)
	if d := got.Diff(want); d != "" {
		t.Fatalf("pipeline trace mismatch: %s\n%s", d, p.Format())
	}
}

func TestSimulateMatchesReferenceClusteredReplicated(t *testing.T) {
	g := saxpy(t)
	for _, cfg := range []string{"2c1b2l64r", "4c1b2l64r", "4c2b2l64r"} {
		for _, repl := range []bool{false, true} {
			p := expandFor(t, g, cfg, repl)
			iters := p.SC - 1 + 2*p.MVE
			got, err := Simulate(p, iters)
			if err != nil {
				t.Fatalf("%s repl=%v: %v", cfg, repl, err)
			}
			want := vliwsim.Reference(g, iters)
			if d := got.Diff(want); d != "" {
				t.Fatalf("%s repl=%v: %s", cfg, repl, d)
			}
		}
	}
}

func TestSimulateRejectsBadTripCount(t *testing.T) {
	p := expandFor(t, saxpy(t), "unified", false)
	if _, err := Simulate(p, p.SC-1+p.MVE+1); p.MVE > 1 && err == nil {
		t.Error("unpreconditioned trip count accepted")
	}
	if _, err := Simulate(p, 0); err == nil {
		t.Error("zero trip count accepted")
	}
}

func TestRandomLoopsPipelineCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	configs := []string{"unified", "2c1b2l64r", "4c1b2l64r", "4c2b4l64r"}
	for trial := 0; trial < 30; trial++ {
		b := ddg.NewBuilder("rand")
		ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
		n := 5 + rng.Intn(14)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = b.Node("", ops[rng.Intn(len(ops))])
		}
		for i := 1; i < n; i++ {
			b.Edge(ids[rng.Intn(i)], ids[i], rng.Intn(7)/6)
		}
		st := b.Node("", ddg.OpStore)
		b.Edge(ids[n-1], st, 0)
		g := b.MustBuild()

		p := expandFor(t, g, configs[trial%len(configs)], trial%2 == 0)
		iters := p.SC - 1 + 2*p.MVE
		got, err := Simulate(p, iters)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := vliwsim.Reference(g, iters)
		if d := got.Diff(want); d != "" {
			t.Fatalf("trial %d (%s): %s", trial, configs[trial%len(configs)], d)
		}
	}
}

func TestMVEFactorReflectsLifetimes(t *testing.T) {
	// A long-latency producer consumed late forces q > 1 at a small II.
	b := ddg.NewBuilder("mve")
	l := b.Node("l", ddg.OpLoad)
	d := b.Node("d", ddg.OpFDiv) // 18-cycle latency
	s1 := b.Node("s1", ddg.OpStore)
	b.Edge(l, d, 0)
	b.Edge(d, s1, 0)
	// Parallel independent work keeps the II small while d's value lives long.
	for i := 0; i < 3; i++ {
		ld := b.Node("", ddg.OpLoad)
		f := b.Node("", ddg.OpFAdd)
		st := b.Node("", ddg.OpStore)
		b.Edge(ld, f, 0)
		b.Edge(f, st, 0)
	}
	g := b.MustBuild()
	p := expandFor(t, g, "unified", false)
	if p.SC < 2 {
		t.Skip("schedule too shallow to exercise MVE")
	}
	if p.MVE < 1 {
		t.Fatalf("MVE = %d", p.MVE)
	}
	iters := p.SC - 1 + 2*p.MVE
	got, err := Simulate(p, iters)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Diff(vliwsim.Reference(g, iters)); d != "" {
		t.Fatal(d)
	}
}
