package pipeline

// Behavioural properties of the compile door: determinism, cause
// attribution, replication never worsening the II or the schedule length,
// the II search bound, the register-pressure switch.

import (
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
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
	r, err := Compile(g, machine.Unified(64), Options{})
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
		base, err := Compile(g, m, Options{VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d baseline: %v", trial, err)
		}
		repl, err := Compile(g, m, Options{Replicate: true, VerifySchedules: true})
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
	g := commBound(t)
	m := machine.MustParse("4c1b2l64r")
	r, err := Compile(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.II == r.MII {
		t.Skip("loop scheduled at MII; no causes to attribute")
	}
	bus := r.IIIncreases[CauseBus]
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
		norm, err := Compile(g, m, Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		zero, err := Compile(g, m, Options{Replicate: true, ZeroBusLatency: true})
		if err != nil {
			t.Fatal(err)
		}
		// The zero-latency upper bound should not lose on the II — except
		// through register pressure: delivering values with zero latency
		// starts their lifetimes earlier, which can legitimately push a
		// cluster past its register file where the real machine squeaked by.
		if zero.II > norm.II && zero.IIIncreases[CauseRegisters] <= norm.IIIncreases[CauseRegisters] {
			t.Errorf("trial %d: zero-bus-latency II %d > %d without register cause (%v vs %v)",
				trial, zero.II, norm.II, zero.IIIncreases, norm.IIIncreases)
		}
	}
}

func TestSpeedupModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomLoop(rng, 20)
	m := machine.MustParse("4c1b2l64r")
	base, err := Compile(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Compile(g, m, Options{Replicate: true})
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
	r1, err := Compile(g, m, Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Compile(g, m, Options{Replicate: true})
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
		r, err := Compile(g, m, Options{Replicate: true, UseMacroReplication: true, VerifySchedules: true})
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
		r, err := Compile(g, m, Options{Replicate: true, LengthReplicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		base, err := Compile(g, m, Options{Replicate: true, VerifySchedules: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.II > base.II {
			t.Errorf("trial %d: length replication worsened II %d -> %d", trial, base.II, r.II)
		}
	}
}

func TestMaxIIBoundReported(t *testing.T) {
	b := ddg.NewBuilder("tight")
	a := b.Node("a", ddg.OpFDiv)
	b.Edge(a, a, 1) // RecMII 18
	g := b.MustBuild()
	m := machine.Unified(64)
	// MaxII below the MII: the search must fail with a clear error.
	_, err := Compile(g, m, Options{MaxII: 2})
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
		r, err := Compile(g, m, Options{})
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
		r, err := Compile(g, m, Options{Replicate: true})
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
	if _, err := Compile(g, m, Options{}); err == nil {
		t.Skip("loop unexpectedly fits 2 registers")
	}
	if _, err := Compile(g, m, Options{IgnoreRegisterPressure: true}); err != nil {
		t.Fatalf("IgnoreRegisterPressure compile failed: %v", err)
	}
}

func TestResultSpeedupSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomLoop(rng, 16)
	m := machine.MustParse("4c1b2l64r")
	base, err := Compile(g, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	repl, err := Compile(g, m, Options{Replicate: true})
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
	want := map[Cause]string{
		CauseBus:        "Bus",
		CauseRecurrence: "Recurrences",
		CauseRegisters:  "Registers",
	}
	for c, w := range want {
		if c.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), w)
		}
	}
	if Cause(99).String() == "" {
		t.Error("unknown cause renders empty")
	}
}

func TestLengthReplicationNeverWorsensLength(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := machine.MustParse("4c1b2l64r")
	worse := 0
	for trial := 0; trial < 25; trial++ {
		g := randomLoop(rng, 10+rng.Intn(16))
		plain, err := Compile(g, m, Options{Replicate: true})
		if err != nil {
			t.Fatal(err)
		}
		ext, err := Compile(g, m, Options{Replicate: true, LengthReplicate: true})
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
