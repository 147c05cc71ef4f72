package codegen

import (
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

func TestFitsRegisterFileFlags(t *testing.T) {
	// A wide loop on a 4-register machine: the MVE block allocation cannot
	// fit, and the program must say so rather than mis-emit.
	b := ddg.NewBuilder("wide")
	for i := 0; i < 5; i++ {
		l := b.Node("", ddg.OpLoad)
		d := b.Node("", ddg.OpFDiv)
		s := b.Node("", ddg.OpStore)
		b.Edge(l, d, 0)
		b.Edge(d, s, 0)
	}
	g := b.MustBuild()
	m := machine.MustNew(1, 0, 0, 4)
	r, err := pipeline.Compile(g, m, pipeline.Options{IgnoreRegisterPressure: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Expand(r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if p.RegsUsed[0] <= 4 {
		t.Skip("schedule unexpectedly frugal")
	}
	if p.FitsRegisterFile {
		t.Errorf("FitsRegisterFile true with %d regs used of 4", p.RegsUsed[0])
	}
}

func TestLCMHelpers(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{1, 1, 1}, {2, 3, 6}, {4, 6, 12}, {5, 5, 5}, {1, 7, 7},
	}
	for _, c := range cases {
		if got := lcm(c.a, c.b); got != c.want {
			t.Errorf("lcm(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEpilogEmptyForSingleStage(t *testing.T) {
	// A loop whose whole body fits one stage has no prolog or epilog.
	b := ddg.NewBuilder("flat")
	x := b.Node("x", ddg.OpIAdd)
	s := b.Node("s", ddg.OpStore)
	b.Edge(x, s, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	r, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Expand(r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if p.SC == 1 && (len(p.Prolog) != 0 || len(p.Epilog) != 0) {
		t.Errorf("single-stage pipeline has prolog %d / epilog %d bundles",
			len(p.Prolog), len(p.Epilog))
	}
}

func TestOrigOfResolvesNames(t *testing.T) {
	b := ddg.NewBuilder("names")
	lbl := b.Node("alpha", ddg.OpIAdd)
	anon := b.Node("", ddg.OpFMul)
	b.Edge(lbl, anon, 0)
	st := b.Node("st", ddg.OpStore)
	b.Edge(anon, st, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	r, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ig := r.Schedule.IG
	for i := int32(0); i < int32(ig.NumInstances()); i++ {
		want := ig.Inst[i].Orig
		if got := origOf(ig, ig.Name(i)); got != want {
			t.Errorf("origOf(%q) = %d, want %d", ig.Name(i), got, want)
		}
	}
}
