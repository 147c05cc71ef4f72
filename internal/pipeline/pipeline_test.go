package pipeline

import (
	"errors"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
)

// commBound builds a loop with many independent producer/consumer pairs:
// forced across clusters it is bus-bound, so the baseline needs several II
// attempts on a one-bus machine.
func commBound(t *testing.T) *ddg.Graph {
	t.Helper()
	b := ddg.NewBuilder("commbound")
	for i := 0; i < 10; i++ {
		u := b.Node("", ddg.OpIAdd)
		v := b.Node("", ddg.OpFMul)
		w := b.Node("", ddg.OpFMul)
		b.Edge(u, v, 0)
		b.Edge(u, w, 0)
	}
	return b.MustBuild()
}

// tracePass records the II of every attempt it sees; prepended to the
// chain it observes each retry.
type tracePass struct{ iis *[]int }

func (tracePass) Name() string { return "trace" }
func (p tracePass) Run(ctx *Context) error {
	*p.iis = append(*p.iis, ctx.II)
	return nil
}

func TestCustomChainObservesEveryAttempt(t *testing.T) {
	g := commBound(t)
	m := machine.MustParse("4c1b2l64r")
	var iis []int
	chain := append([]Pass{tracePass{&iis}}, paperStrategy(t).Chain...)
	res, err := search(t.Context(), g, m, Options{VerifySchedules: true}, Strategy{Chain: chain}, SearchConfig{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.IIIncreases {
		total += n
	}
	if len(iis) != total+1 {
		t.Fatalf("trace saw %d attempts, want %d increases + 1", len(iis), total)
	}
	for i, ii := range iis {
		if want := res.MII + i; ii != want {
			t.Fatalf("attempt %d ran at II=%d, want %d", i, ii, want)
		}
	}
	if iis[len(iis)-1] != res.II {
		t.Fatalf("last attempt II=%d, achieved II=%d", iis[len(iis)-1], res.II)
	}
}

// TestChainEquivalentToCompile runs the paper chain explicitly on the
// loop's canonical presentation, the graph Compile's search runs on.
func TestChainEquivalentToCompile(t *testing.T) {
	g := commBound(t)
	cg := new(ddg.Presentation).Of(g)
	bare := Strategy{Chain: paperStrategy(t).Chain} // no Validate
	for _, cfg := range []string{"unified", "2c1b2l64r", "4c1b2l64r", "4c2b2l64r"} {
		m := machine.MustParse(cfg)
		for _, opts := range []Options{
			{},
			{Replicate: true},
			{Replicate: true, LengthReplicate: true},
			{Replicate: true, ZeroBusLatency: true},
			{Replicate: true, UseMacroReplication: true},
		} {
			a, err := Compile(g, m, opts)
			if err != nil {
				t.Fatalf("%s %+v: %v", cfg, opts, err)
			}
			b, err := search(t.Context(), cg, m, opts, bare, SearchConfig{})
			if err != nil {
				t.Fatalf("%s %+v: %v", cfg, opts, err)
			}
			if a.II != b.II || a.Length != b.Length || a.Comms != b.Comms ||
				a.IIIncreases != b.IIIncreases || a.Replicated != b.Replicated {
				t.Errorf("%s %+v: Compile and explicit Chain diverge: %+v vs %+v", cfg, opts, a, b)
			}
		}
	}
}

// paperStrategy returns the registered paper strategy.
func paperStrategy(t *testing.T) Strategy {
	t.Helper()
	s, err := LookupStrategy(DefaultStrategy)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPassNamesUnique(t *testing.T) {
	for _, name := range StrategyNames() {
		s, _ := LookupStrategy(name)
		seen := map[string]bool{}
		for _, p := range s.Chain {
			n := p.Name()
			if n == "" {
				t.Errorf("%s: pass %T has empty name", name, p)
			}
			if seen[n] {
				t.Errorf("%s: duplicate pass name %q", name, n)
			}
			seen[n] = true
		}
	}
}

func TestClassifyFailure(t *testing.T) {
	cases := []struct {
		err  error
		want Cause
	}{
		{&sched.Error{Kind: sched.FailWindow}, CauseRecurrence},
		{&sched.Error{Kind: sched.FailRegisters}, CauseRegisters},
		// Resource failures land in the bus bucket whether or not the
		// failing instance was a copy (the paper's Fig. 1 taxonomy).
		{&sched.Error{Kind: sched.FailResource, IsCopy: true}, CauseBus},
		{&sched.Error{Kind: sched.FailResource, IsCopy: false}, CauseBus},
		{errors.New("not a sched error"), CauseRecurrence},
	}
	for _, c := range cases {
		if got := ClassifyFailure(c.err); got != c.want {
			t.Errorf("ClassifyFailure(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestMaxIIRespected(t *testing.T) {
	b := ddg.NewBuilder("rec")
	v := b.Node("v", ddg.OpFDiv)
	b.Edge(v, v, 1) // RecMII ≥ the FDiv latency
	s := b.Node("s", ddg.OpStore)
	b.Edge(v, s, 0)
	g := b.MustBuild()
	if _, err := Compile(g, machine.MustParse("4c1b2l64r"), Options{MaxII: 2}); err == nil {
		t.Fatal("MaxII=2 below the recurrence MII should fail")
	}
}
