package core

import (
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

func TestMaxIIBoundReported(t *testing.T) {
	b := ddg.NewBuilder("tight")
	a := b.Node("a", ddg.OpFDiv)
	b.Edge(a, a, 1) // RecMII 18
	g := b.MustBuild()
	m := machine.Unified(64)
	// MaxII below the MII: the search must fail with a clear error.
	_, err := pipeline.Compile(g, m, pipeline.Options{MaxII: 2})
	if err == nil {
		t.Fatal("MaxII=2 compile of an II-18 loop succeeded")
	}
	if !strings.Contains(err.Error(), "II up to 2") {
		t.Errorf("error %q does not mention the bound", err)
	}
}

func TestIIIncreasesSumMatchesGap(t *testing.T) {
	// The recorded cause tallies account for every II step above the MII.
	rng := rand.New(rand.NewSource(23))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 40; trial++ {
		g := randomLoop(rng, 8+rng.Intn(20))
		r, err := pipeline.Compile(g, m, pipeline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range r.IIIncreases {
			total += n
		}
		if total != r.II-r.MII {
			t.Errorf("trial %d: %d recorded increases for an II gap of %d",
				trial, total, r.II-r.MII)
		}
	}
}

func TestUnifiedNeverReplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := machine.Unified(64)
	for trial := 0; trial < 20; trial++ {
		g := randomLoop(rng, 6+rng.Intn(16))
		r, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.ReplicationSteps != 0 || r.Comms != 0 {
			t.Errorf("trial %d: unified machine replicated (%d steps, %d comms)",
				trial, r.ReplicationSteps, r.Comms)
		}
		for _, n := range r.Placement.ExtraInstances() {
			if n != 0 {
				t.Errorf("trial %d: extra instances on unified machine", trial)
			}
		}
	}
}

func TestIgnoreRegisterPressureWidensFeasibility(t *testing.T) {
	// A loop that overflows a tiny register file compiles once the check is
	// disabled.
	b := ddg.NewBuilder("reg")
	sink := b.Node("sink", ddg.OpFDiv)
	for i := 0; i < 6; i++ {
		l := b.Node("", ddg.OpLoad)
		b.Edge(l, sink, 0)
	}
	st := b.Node("st", ddg.OpStore)
	b.Edge(sink, st, 0)
	g := b.MustBuild()
	m := machine.MustNew(1, 0, 0, 2)
	if _, err := pipeline.Compile(g, m, pipeline.Options{}); err == nil {
		t.Skip("loop unexpectedly fits 2 registers")
	}
	if _, err := pipeline.Compile(g, m, pipeline.Options{IgnoreRegisterPressure: true}); err != nil {
		t.Fatalf("IgnoreRegisterPressure compile failed: %v", err)
	}
}

func TestResultSpeedupSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomLoop(rng, 16)
	m := machine.MustParse("4c1b2l64r")
	base, err := pipeline.Compile(g, m, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	a := repl.Speedup(base, 50)
	b := base.Speedup(repl, 50)
	if a*b < 0.999 || a*b > 1.001 {
		t.Errorf("speedups not reciprocal: %v * %v = %v", a, b, a*b)
	}
}

func TestCauseStringsStable(t *testing.T) {
	// Fig. 1's legend depends on these names.
	want := map[pipeline.Cause]string{
		pipeline.CauseBus:        "Bus",
		pipeline.CauseRecurrence: "Recurrences",
		pipeline.CauseRegisters:  "Registers",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), w)
		}
	}
	if pipeline.Cause(99).String() == "" {
		t.Error("unknown cause renders empty")
	}
}

func TestLengthReplicationNeverWorsensLength(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := machine.MustParse("4c1b2l64r")
	worse := 0
	for trial := 0; trial < 25; trial++ {
		g := randomLoop(rng, 10+rng.Intn(16))
		plain, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := pipeline.Compile(g, m, pipeline.Options{Replicate: true, LengthReplicate: true})
		if err != nil {
			t.Fatal(err)
		}
		if ext.II == plain.II && ext.Length > plain.Length {
			worse++
		}
	}
	// The greedy length extension only commits improving steps, but the
	// no-backtracking scheduler adds noise; it must not lose often.
	if worse > 3 {
		t.Errorf("length extension worsened the schedule length in %d/25 trials", worse)
	}
}
