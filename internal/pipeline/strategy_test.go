package pipeline

import (
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/corpus"
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
	s, ok := LookupStrategy("")
	if !ok || s.Name() != DefaultStrategy {
		t.Fatalf("empty strategy resolved to %v, %v; want %q", s, ok, DefaultStrategy)
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
// produces, at the pipeline level.
func TestUnknownStrategyTyped(t *testing.T) {
	g := corpus.Generate(corpus.ShapeParallel, "u", rand.New(rand.NewSource(1)), 12, corpus.DefaultParams())
	_, err := Compile(g, machine.MustParse("4c2b2l64r"), Options{Strategy: "nope"})
	var ue *UnknownStrategyError
	if err == nil {
		t.Fatal("unknown strategy compiled")
	}
	if !errorsAs(err, &ue) || ue.Name != "nope" {
		t.Fatalf("want *UnknownStrategyError{nope}, got %v", err)
	}
}

// errorsAs is a local alias to keep the import list short.
func errorsAs(err error, target *(*UnknownStrategyError)) bool {
	ue, ok := err.(*UnknownStrategyError)
	if ok {
		*target = ue
	}
	return ok
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
