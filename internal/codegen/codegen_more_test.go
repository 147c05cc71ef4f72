package codegen

import (
	"errors"
	"fmt"
	"strconv"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/workload"
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

// TestOrigOfResolvesNames: every emitted op carries the instance its name
// names — and so the original node Simulate evaluates — and the iteration
// its tag spells; every instance is emitted.
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
	p, err := Expand(r.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	ig := r.Schedule.IG
	seen := make([]bool, ig.NumInstances())
	for _, sec := range []struct {
		bs  []Bundle
		tag func(iter int) string
	}{
		{p.Prolog, func(k int) string { return strconv.Itoa(k) }},
		{p.Kernel, func(d int) string { return fmt.Sprintf("n%+d", d) }},
		{p.Epilog, func(j int) string {
			if j == 0 {
				return "N-1"
			}
			return fmt.Sprintf("N-1-%d", j)
		}},
	} {
		for _, b := range sec.bs {
			for _, op := range b.Ops {
				seen[op.inst] = true
				if name := ig.Name(op.inst); name != op.Name {
					t.Errorf("op %s carries instance %d, %s", op.Name, op.inst, name)
				}
				if tag := sec.tag(op.iter); tag != op.IterTag {
					t.Errorf("op %s[%s] carries iteration %d, spelled %s", op.Name, op.IterTag, op.iter, tag)
				}
			}
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("instance %s is never emitted", ig.Name(int32(i)))
		}
	}
}

// TestExpandRefusesIssuePastLastStage pins a schedule that issues past its
// last stage: under zero-latency buses a copy issued at cycle Length lands
// in stage SC = ⌈Length/II⌉. Expand refuses it with a *StageError instead
// of indexing past its epilog. No suite schedule does this, and none of
// the first 3 000 corpus loops' on any Table 1 machine, so the schedule is
// made by hand and proven: x → a in cluster 0, a's value carried to b in
// cluster 1 one iteration later, the copy the last thing the iteration
// issues (cycle 2 = Length at II 2).
func TestExpandRefusesIssuePastLastStage(t *testing.T) {
	b := ddg.NewBuilder("late_copy")
	x := b.Node("x", ddg.OpIAdd)
	a := b.Node("a", ddg.OpIAdd)
	c := b.Node("b", ddg.OpIAdd)
	b.Edge(x, a, 0)
	b.Edge(a, c, 1)
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	place := func(home []int, replicas []sched.ClusterSet) error {
		copy(home, []int{0, 0, 1})
		for v, h := range home {
			replicas[v] = sched.ClusterSet(0).Add(h)
		}
		return nil
	}
	// One instance per node in node order, then a's copy: x and b at 0, a
	// at 1, the copy at 2.
	times := []int{0, 1, 0, 2}
	s, err := sched.Prove(g, m, true, 2, sched.Options{}, place, times)
	if err != nil {
		t.Fatal(err)
	}
	if s.Length != 2 || s.SC != 1 {
		t.Fatalf("the hand schedule has length %d and %d stages, want 2 and 1", s.Length, s.SC)
	}
	_, err = Expand(s)
	var se *StageError
	if want := (StageError{Inst: "copy(a)", Time: 2, II: 2, SC: 1}); !errors.As(err, &se) || *se != want {
		t.Errorf("Expand error %v, want %+v", err, want)
	}
}

// TestExpandZeroBusSuite: on every Table 1 machine with zero-latency buses,
// every suite schedule expands or is refused with a *StageError; none
// panics.
func TestExpandZeroBusSuite(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	loops := workload.SPECfp95()
	refused := 0
	for _, m := range machine.PaperConfigs() {
		for i := 0; i < len(loops); i += stride {
			g := loops[i].Graph
			r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, ZeroBusLatency: true})
			if err != nil {
				continue
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on %s: Expand panicked: %v", g.Name, m.Name, p)
					}
				}()
				var se *StageError
				if _, err := Expand(r.Schedule); errors.As(err, &se) {
					refused++
				} else if err != nil {
					t.Errorf("%s on %s: %v", g.Name, m.Name, err)
				}
			}()
		}
	}
	t.Logf("%d schedules refused", refused)
}
