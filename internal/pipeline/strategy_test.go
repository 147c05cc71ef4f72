package pipeline

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
)

// TestStrategyRegistry pins the registered strategy set and the default
// resolution: the wire schema, the service's /strategies endpoint and the
// paperbench -strategies flag all lean on these names being stable.
func TestStrategyRegistry(t *testing.T) {
	want := []string{"moddist", "paper", "uas", "unified"}
	got := StrategyNames()
	if len(got) != len(want) {
		t.Fatalf("StrategyNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StrategyNames() = %v, want %v", got, want)
		}
	}
	s, err := LookupStrategy("")
	if err != nil || s.Name != DefaultStrategy {
		t.Fatalf("empty strategy resolved to %q, %v; want %q", s.Name, err, DefaultStrategy)
	}
	if (Options{}).StrategyName() != "paper" || (Options{Strategy: "uas"}).StrategyName() != "uas" {
		t.Fatal("StrategyName canonicalization broken")
	}
	for _, name := range got {
		if StrategyDescription(name) == "" {
			t.Errorf("strategy %q has no description", name)
		}
	}
}

// TestUnknownStrategyTyped verifies the typed error an unregistered name
// produces, at the pipeline level: from the lookup and from a compile.
func TestUnknownStrategyTyped(t *testing.T) {
	g := corpus.Generate(corpus.ShapeParallel, "u", rand.New(rand.NewSource(1)), 12, corpus.DefaultParams())
	_, lookupErr := LookupStrategy("nope")
	_, err := Compile(g, machine.MustParse("4c2b2l64r"), Options{Strategy: "nope"})
	for _, err := range []error{lookupErr, err} {
		var ue *UnknownStrategyError
		if err == nil {
			t.Fatal("unknown strategy resolved")
		}
		if !errors.As(err, &ue) || ue.Name != "nope" {
			t.Fatalf("want *UnknownStrategyError{nope}, got %v", err)
		}
	}
}

// TestStrategyValidateRejectsPaperOnlyOptions: strategies without a
// replication pass must reject the replication flags instead of silently
// ignoring them (which would fork the cache identity of identical work).
func TestStrategyValidateRejectsPaperOnlyOptions(t *testing.T) {
	g := corpus.Generate(corpus.ShapeParallel, "v", rand.New(rand.NewSource(2)), 12, corpus.DefaultParams())
	m := machine.MustParse("4c2b2l64r")
	for _, name := range []string{"uas", "moddist"} {
		if _, err := Compile(g, m, Options{Strategy: name, Replicate: true}); err == nil {
			t.Errorf("strategy %q accepted Replicate", name)
		}
	}
	if _, err := Compile(g, m, Options{Strategy: "unified"}); err != nil {
		t.Errorf("unified rejected plain options: %v", err)
	}
	// A negative search bound is rejected for what it is under every
	// strategy — not searched, then reported as "does not schedule".
	for _, name := range StrategyNames() {
		_, err := Compile(g, m, Options{Strategy: name, MaxII: -5})
		if err == nil || err.Error() != "pipeline: MaxII must be ≥ 0" {
			t.Errorf("strategy %q with MaxII=-5: got %v", name, err)
		}
	}
}

// TestStrategyTable pins every row of the strategy table: which strategies
// skip ahead, which rewrite the machine, and which options or machines each
// refuses — with the error it refuses them by.
func TestStrategyTable(t *testing.T) {
	m := machine.MustParse("4c2b2l64r")
	hetero, err := machine.NewHetero(2, 2, 32, [][3]int{{2, 1, 1}, {0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		opts Options
		m    machine.Config
	}{
		{"plain", Options{}, m},
		{"Replicate", Options{Replicate: true}, m},
		{"LengthReplicate", Options{LengthReplicate: true}, m},
		{"UseMacroReplication", Options{UseMacroReplication: true}, m},
		{"ZeroBusLatency", Options{ZeroBusLatency: true}, m},
		{"IgnoreRegisterPressure", Options{IgnoreRegisterPressure: true}, m},
		{"VerifySchedules", Options{VerifySchedules: true}, m},
		{"MaxII", Options{MaxII: 40}, m},
		{"hetero", Options{}, hetero},
	}
	noRepl := map[string]string{
		"Replicate":           "Options.Replicate",
		"LengthReplicate":     "Options.LengthReplicate",
		"UseMacroReplication": "Options.UseMacroReplication",
	}
	rows := []struct {
		name      string
		compileOn string            // the machine m compiles for
		refuses   map[string]string // input → what its error names
	}{
		{"moddist", m.Name, noRepl},
		{"paper", m.Name, nil},
		{"uas", m.Name, noRepl},
		{"unified", machine.Unified(m.Regs * m.Clusters).Name, map[string]string{
			"hetero": "heterogeneous machine " + hetero.String() + " has no unified equivalent"}},
	}
	if got := StrategyNames(); len(got) != len(rows) {
		t.Fatalf("registered %v, the table has %d rows", got, len(rows))
	}
	for i, row := range rows {
		_, err := LookupStrategy(row.name)
		if err != nil || StrategyNames()[i] != row.name {
			t.Fatalf("row %d: %q not registered in order: %v", i, row.name, err)
		}
		for _, in := range inputs {
			opts := in.opts
			opts.Strategy = row.name
			_, eff, err := resolveStrategy(opts, in.m)
			want, refused := row.refuses[in.name]
			switch {
			case refused && err == nil:
				t.Errorf("%s accepted %s", row.name, in.name)
			case refused && !strings.Contains(err.Error(), want):
				t.Errorf("%s refused %s with %q, want it to name %q", row.name, in.name, err, want)
			case !refused && err != nil:
				t.Errorf("%s refused %s: %v", row.name, in.name, err)
			case !refused && in.m.Hetero == nil && eff.Name != row.compileOn:
				t.Errorf("%s with %s compiles on %s, want %s", row.name, in.name, eff.Name, row.compileOn)
			}
		}
	}
}

// TestRegisterStrategyLiteral registers a strategy written as a literal —
// moddist's chain behind a counting pass, no Validate — and compiles
// through Search: it matches the reference search and moddist itself, and
// the registry is left as it was.
func TestRegisterStrategyLiteral(t *testing.T) {
	const name = "literal-moddist"
	var runs int
	RegisterStrategy(Strategy{
		Name:        name,
		Description: "moddist, counted",
		Chain:       []Pass{countingPass{ModDistPass{}, &runs}, SchedulePass{}, VerifyPass{}},
	})
	t.Cleanup(func() {
		strategyMu.Lock()
		delete(strategyReg, name)
		strategyMu.Unlock()
	})
	if StrategyDescription(name) != "moddist, counted" {
		t.Fatalf("registered literal describes itself as %q", StrategyDescription(name))
	}
	m := machine.MustParse("4c1b2l64r")
	for i := 0; i < 8; i++ {
		g := corpus.DefaultSpec().Loop(i)
		requireParity(t, g.Name, g, m, Options{Strategy: name})
		got, err := Search(t.Context(), g, m, Options{Strategy: name}, SearchConfig{})
		want, wantErr := Compile(g, m, Options{Strategy: "moddist"})
		requireSameResult(t, g.Name+" vs moddist", got, want, err, wantErr)
	}
	if runs == 0 {
		t.Fatal("Search never ran the literal's chain")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering a name twice did not panic")
		}
	}()
	RegisterStrategy(Strategy{Name: name})
}

// strategyOptions returns the natural option set for compiling under a
// strategy in cross-strategy comparisons: the paper chain runs its
// replication pass (its headline configuration); the rivals run bare.
func strategyOptions(name string) Options {
	o := Options{Strategy: name, VerifySchedules: true}
	if name == "paper" {
		o.Replicate = true
	}
	return o
}

// TestStrategiesCrossProperties is the cross-strategy property test: for
// random loops × paper machine configurations, every registered strategy
// must produce a schedule that passes verification (VerifySchedules makes
// the pipeline's VerifyPass re-check it; this test re-verifies explicitly
// too), the unified upper bound must achieve an II no worse than any
// clustered strategy, and the paper partitioner must imply no more
// communications than the naive modulo distribution on bus-constrained
// (single-bus) configs.
func TestStrategiesCrossProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	configs := machine.PaperConfigs()
	trials := 60
	if testing.Short() {
		trials = 15
	}
	shapes := []corpus.Shape{corpus.ShapeBroadcast, corpus.ShapeParallel, corpus.ShapeReduction, corpus.ShapeWide}
	for trial := 0; trial < trials; trial++ {
		g := corpus.Generate(shapes[rng.Intn(len(shapes))], "x", rng, 10+rng.Intn(30), corpus.DefaultParams())
		m := configs[rng.Intn(len(configs))]
		results := map[string]*Result{}
		for _, name := range StrategyNames() {
			res, err := Compile(g, m, strategyOptions(name))
			if err != nil {
				t.Fatalf("trial %d: %s on %s under %q: %v", trial, g.Name, m, name, err)
			}
			if err := sched.Verify(res.Schedule); err != nil {
				t.Fatalf("trial %d: %q schedule fails verification: %v", trial, name, err)
			}
			results[name] = res
		}
		uni := results["unified"]
		for _, name := range []string{"paper", "uas", "moddist"} {
			if res := results[name]; uni.II > res.II {
				t.Errorf("trial %d: %s on %s: unified II=%d > %q II=%d",
					trial, g.Name, m, uni.II, name, res.II)
			}
		}
		if m.Buses == 1 {
			if p, md := results["paper"], results["moddist"]; p.Comms > md.Comms {
				t.Errorf("trial %d: %s on %s: paper comms=%d > moddist comms=%d",
					trial, g.Name, m, p.Comms, md.Comms)
			}
		}
	}
}

// TestUnifiedStrategyRewritesMachine: the unified strategy's Result reports
// the effective (monolithic) machine, and matches a direct unified-machine
// compile.
func TestUnifiedStrategyRewritesMachine(t *testing.T) {
	g := corpus.Generate(corpus.ShapeReduction, "r", rand.New(rand.NewSource(3)), 16, corpus.DefaultParams())
	m := machine.MustParse("4c2b2l64r")
	res, err := Compile(g, m, Options{Strategy: "unified"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Clusters != 1 || !strings.HasPrefix(res.Machine.Name, "unified") {
		t.Fatalf("unified strategy compiled for %s", res.Machine)
	}
	direct, err := Compile(g, machine.Unified(64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.II != direct.II || res.Length != direct.Length {
		t.Fatalf("unified strategy II=%d len=%d differs from direct unified compile II=%d len=%d",
			res.II, res.Length, direct.II, direct.Length)
	}
	// A heterogeneous machine has no unified equivalent.
	hm, err := machine.NewHetero(2, 2, 32, [][3]int{{2, 1, 1}, {0, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(g, hm, Options{Strategy: "unified"}); err == nil {
		t.Fatal("unified strategy accepted a heterogeneous machine")
	}
}

// TestUASDiffersFromPaper spot-checks that uas is a genuinely different
// algorithm: across a pool of random loops on a bus-tight config, at least
// one compiles to a different (II, comms) point than the paper strategy.
func TestUASDiffersFromPaper(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := machine.MustParse("4c1b2l64r")
	differs := false
	for trial := 0; trial < 30 && !differs; trial++ {
		g := corpus.Generate(corpus.ShapeWide, "w", rng, 16+rng.Intn(24), corpus.DefaultParams())
		pr, err1 := Compile(g, m, strategyOptions("paper"))
		ur, err2 := Compile(g, m, strategyOptions("uas"))
		if err1 != nil || err2 != nil {
			t.Fatalf("trial %d: paper err=%v, uas err=%v", trial, err1, err2)
		}
		if pr.II != ur.II || pr.Comms != ur.Comms {
			differs = true
		}
	}
	if !differs {
		t.Error("uas never produced a different (II, comms) point than paper over 30 loops")
	}
}

// TestUASTimingMove pins the uas schedules of c1_000147_cyclic, the one loop
// of the suite and corpus loops 0–999 whose uas schedules moved when the
// loop graph's timing became the scheduler's. Its recurrence r0 → in0 → r0
// has a loop-carried edge in0 → r0 whose effective latency stays positive
// up to II 5, and r0 feeds the store st0 at distance 0. The retired timing
// raised r0 in its loop-carried passes but never re-relaxed r0 → st0, so
// uas swept st0 as if it could issue before r0's value existed; the shared
// timing relaxes every edge each pass, which moves st0 later in uas's
// order. On 4c1b2l64r that saved an interval (II 6 → 5); on four machines
// the iteration ran one to six cycles longer at the same II. The pins are
// the loop's canonical presentation's (Search compiles that one): the
// same intervals, and 2, 5 and 5 cycles shorter on 2c2b4l64r, 4c1b2l64r
// and 4c2b2l64r than the presentation the corpus generates.
func TestUASTimingMove(t *testing.T) {
	g := corpus.DefaultSpec().Loop(147)
	if g.Name != "c1_000147_cyclic" {
		t.Fatalf("corpus loop 147 is %s", g.Name)
	}
	r0, st0 := 0, 4 // node r0 and store st0
	if g.Nodes[r0].Label != "r0" || g.Nodes[st0].Label != "st0" {
		t.Fatalf("nodes 0 and 4 are %s and %s", g.NodeName(r0), g.NodeName(st0))
	}
	tm := g.ComputeTimingScratch(5, &ddg.TimingScratch{})
	if tm.ASAP[st0] <= tm.ASAP[r0] {
		t.Errorf("at II=5 st0 ASAP %d, not after r0's %d", tm.ASAP[st0], tm.ASAP[r0])
	}
	// Before the timing change: 5/12, 5/13, 6/25, 5/18, 5/17, 5/18.
	want := map[string][2]int{
		"2c1b2l64r": {5, 12}, "2c2b4l64r": {5, 17}, "4c1b2l64r": {5, 13},
		"4c2b4l64r": {5, 19}, "4c2b2l64r": {5, 13}, "4c4b4l64r": {5, 19},
	}
	for _, m := range machine.PaperConfigs() {
		r, err := Compile(g, m, Options{Strategy: "uas", VerifySchedules: true})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if got := [2]int{r.II, r.Length}; got != want[m.Name] {
			t.Errorf("%s: II/length %v, want %v", m.Name, got, want[m.Name])
		}
	}
}
