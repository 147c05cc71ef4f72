package pipeline

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
	"clusched/internal/telemetry"
	"clusched/internal/workload"
)

// The search's acceleration — moddist's skip-ahead (Context.NextII) — and
// its tracing (search.go) must be invisible in every observable output:
// these tests run the inner search untraced and traced beside the naive
// referenceSearch, both on the loop's canonical presentation (the graph
// Search hands the inner search), and require bit-identical Results — the
// acceptance bar for both. Search on the loop as given must then agree in
// every headline number.

// requireSameResult fails unless both searches produced identical Result
// fields (or identical failure).
func requireSameResult(t *testing.T, label string, skip, lin *Result, skipErr, linErr error) {
	t.Helper()
	if !requireSameHeadline(t, label, skip, lin, skipErr, linErr) {
		return
	}
	if a, b := fmt.Sprint(skip.Schedule.Time), fmt.Sprint(lin.Schedule.Time); a != b {
		t.Fatalf("%s: issue-cycle mismatch:\n  got:  %s\n  want: %s", label, a, b)
	}
	if a, b := fmt.Sprint(skip.Placement.Home, skip.Placement.Replicas),
		fmt.Sprint(lin.Placement.Home, lin.Placement.Replicas); a != b {
		t.Fatalf("%s: placement mismatch:\n  got:  %s\n  want: %s", label, a, b)
	}
}

// requireSameHeadline fails unless both searches failed alike or agree on
// MII, II, length, stage count, cause tallies, communications and
// replication; it reports whether both produced a Result.
func requireSameHeadline(t *testing.T, label string, skip, lin *Result, skipErr, linErr error) bool {
	t.Helper()
	if (skipErr == nil) != (linErr == nil) {
		t.Fatalf("%s: skip err=%v, linear err=%v", label, skipErr, linErr)
	}
	if skipErr != nil {
		if skipErr.Error() != linErr.Error() {
			t.Fatalf("%s: differing errors:\n  skip:   %v\n  linear: %v", label, skipErr, linErr)
		}
		return false
	}
	if skip.MII != lin.MII || skip.II != lin.II {
		t.Fatalf("%s: II mismatch: skip MII=%d II=%d, linear MII=%d II=%d",
			label, skip.MII, skip.II, lin.MII, lin.II)
	}
	if skip.Length != lin.Length || skip.SC != lin.SC {
		t.Fatalf("%s: shape mismatch: skip Length=%d SC=%d, linear Length=%d SC=%d",
			label, skip.Length, skip.SC, lin.Length, lin.SC)
	}
	if skip.IIIncreases != lin.IIIncreases {
		t.Fatalf("%s: cause tallies mismatch: skip %v, linear %v",
			label, skip.IIIncreases, lin.IIIncreases)
	}
	if skip.Comms != lin.Comms || skip.CommsBeforeReplication != lin.CommsBeforeReplication {
		t.Fatalf("%s: comms mismatch: skip %d/%d, linear %d/%d",
			label, skip.CommsBeforeReplication, skip.Comms, lin.CommsBeforeReplication, lin.Comms)
	}
	if skip.Replicated != lin.Replicated || skip.Removed != lin.Removed || skip.ReplicationSteps != lin.ReplicationSteps {
		t.Fatalf("%s: replication mismatch: skip %v/%d/%d, linear %v/%d/%d",
			label, skip.Replicated, skip.Removed, skip.ReplicationSteps, lin.Replicated, lin.Removed, lin.ReplicationSteps)
	}
	return true
}

// requireParity compiles one job's canonical presentation through the inner
// search untraced and traced and requires both Results bit-identical to
// referenceSearch's on the same graph; Search on the job's own graph must
// then have the same headline numbers, a schedule of that graph, and one
// that verifies.
func requireParity(t *testing.T, label string, g *ddg.Graph, m machine.Config, opts Options) {
	t.Helper()
	cg := new(ddg.Presentation).Of(g)
	want, wantErr := referenceSearch(cg, m, opts)
	if s, em, err := resolveStrategy(opts, m); err == nil {
		for _, tr := range []*telemetry.Trace{nil, telemetry.NewTrace()} {
			got, err := search(t.Context(), cg, em, opts, s, SearchConfig{Trace: tr})
			mode := fmt.Sprintf("%s (traced=%t)", label, tr != nil)
			requireSameResult(t, mode, got, want, err, wantErr)
		}
	}
	got, err := Search(t.Context(), g, m, opts, SearchConfig{})
	if !requireSameHeadline(t, label+" (as given)", got, want, err, wantErr) {
		return
	}
	if got.Loop != g || got.Schedule.IG.G != g || got.Placement != got.Schedule.IG.P {
		t.Fatalf("%s: the Result is not a schedule of the job's own graph", label)
	}
	if err := sched.Verify(got.Schedule); err != nil {
		t.Fatalf("%s: the relabeled schedule does not verify: %v", label, err)
	}
}

// TestSkipAheadMatchesLinearOnSuite is the suite-wide golden comparison:
// every SPECfp95 loop on every paper configuration, with and without
// replication, must compile to the same Result under both searches. Short
// mode samples one configuration; the full run covers all six.
func TestSkipAheadMatchesLinearOnSuite(t *testing.T) {
	configs := machine.PaperConfigs()
	if testing.Short() {
		configs = configs[2:3] // 4c1b2l64r: the most search-bound config
	}
	loops := workload.SPECfp95()
	for _, m := range configs {
		for _, opts := range []Options{{}, {Replicate: true}} {
			for _, l := range loops {
				label := l.Graph.Name + " on " + m.Name
				if opts.Replicate {
					label += " (replicate)"
				}
				requireParity(t, label, l.Graph, m, opts)
			}
		}
	}
}

// TestSkipAheadMatchesLinearOnRandomLoops is the property test: random
// loops of every workload shape, random paper machines, both modes.
func TestSkipAheadMatchesLinearOnRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20260729))
	configs := machine.PaperConfigs()
	trials := 300
	if testing.Short() {
		trials = 60
	}
	shapes := []corpus.Shape{corpus.ShapeBroadcast, corpus.ShapeParallel, corpus.ShapeReduction, corpus.ShapeWide,
		corpus.ShapeChain, corpus.ShapeTree, corpus.ShapeCyclic}
	for trial := 0; trial < trials; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		// Sizes below the generators' structural minimum produce invalid
		// graphs (the suite profiles never go that small).
		size := 10 + rng.Intn(40)
		g := corpus.Generate(shape, "rnd", rng, size, corpus.DefaultParams())
		m := configs[rng.Intn(len(configs))]
		opts := Options{Replicate: rng.Intn(2) == 0}
		requireParity(t, g.Name+" on "+m.Name, g, m, opts)
	}
}

// countingPass wraps a pass and counts how often it runs: the proof that
// skip-ahead actually skips work, not just that it is harmless.
type countingPass struct {
	inner Pass
	n     *int
}

func (p countingPass) Name() string { return p.inner.Name() }
func (p countingPass) Run(ctx *Context) error {
	*p.n++
	return p.inner.Run(ctx)
}

// TestModDistSkipAheadSkipsAttempts verifies moddist's two jumps fire:
// the bus jump on the corpus's bus-bound loops on a one-bus machine, and
// the recurrence jump on a two-bus one, where its unchanging placement is
// refused at every interval below its recurrence bound. The production
// search must run fewer of the counted passes than the linear one — at
// least eight fewer on some loop — with the same result.
func TestModDistSkipAheadSkipsAttempts(t *testing.T) {
	for _, tc := range []struct {
		name, machine string
		chain         func(n *int) []Pass
	}{
		{"bus", "4c1b2l64r", func(n *int) []Pass { return []Pass{countingPass{ModDistPass{}, n}, SchedulePass{}, VerifyPass{}} }},
		{"recurrence", "4c2b2l64r", func(n *int) []Pass { return []Pass{ModDistPass{}, countingPass{SchedulePass{}, n}, VerifyPass{}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, spec := machine.MustParse(tc.machine), corpus.DefaultSpec()
			fired, most := 0, 0
			for i := 0; i < 60; i++ {
				g := spec.Loop(i)
				var nSkip, nLin int
				skip, skipErr := search(t.Context(), g, m, Options{Strategy: "moddist"}, Strategy{Chain: tc.chain(&nSkip)}, SearchConfig{})
				lin, linErr := referenceChain(g, m, Options{Strategy: "moddist"}, tc.chain(&nLin))
				requireSameResult(t, g.Name, skip, lin, skipErr, linErr)
				if nSkip < nLin {
					fired++
					most = max(most, nLin-nSkip)
				}
			}
			if fired == 0 || most < 8 {
				t.Fatalf("moddist's %s jump skipped passes on %d of 60 loops, at most %d on one; want some, and ≥ 8 on one", tc.name, fired, most)
			}
		})
	}
}

// TestSearchMatchesLinearOnStrategies covers every registered strategy on
// a sample of the suite: each strategy carries different state from one
// failed attempt into the next (a refined partition for paper/unified, a
// fresh sweep for uas, a fixed distribution for moddist), so each needs
// its own parity evidence.
func TestSearchMatchesLinearOnStrategies(t *testing.T) {
	configs := []machine.Config{machine.MustParse("4c2b2l64r"), machine.MustParse("4c1b2l64r")}
	loops := workload.SPECfp95()
	stride := 5
	if testing.Short() {
		stride = 25
	}
	for _, strat := range StrategyNames() {
		opts := Options{Strategy: strat}
		for _, m := range configs {
			for i := 0; i < len(loops); i += stride {
				g := loops[i].Graph
				requireParity(t, g.Name+" on "+m.Name+" ("+strat+")", g, m, opts)
			}
		}
	}
}

// TestSearchMatchesLinearOnRandomStrategies is the property test across
// strategies: random loops of every workload shape, random paper machines
// and random strategies.
func TestSearchMatchesLinearOnRandomStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	configs := machine.PaperConfigs()
	strategies := StrategyNames()
	trials := 300
	if testing.Short() {
		trials = 60
	}
	shapes := []corpus.Shape{corpus.ShapeBroadcast, corpus.ShapeParallel, corpus.ShapeReduction, corpus.ShapeWide,
		corpus.ShapeChain, corpus.ShapeTree, corpus.ShapeCyclic}
	for trial := 0; trial < trials; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		size := 10 + rng.Intn(40)
		g := corpus.Generate(shape, "rnd", rng, size, corpus.DefaultParams())
		m := configs[rng.Intn(len(configs))]
		opts := Options{Strategy: strategies[rng.Intn(len(strategies))]}
		if opts.Strategy == "paper" || opts.Strategy == "unified" {
			opts.Replicate = rng.Intn(2) == 0
		}
		label := fmt.Sprintf("%s on %s (%s)", g.Name, m.Name, opts.StrategyName())
		requireParity(t, label, g, m, opts)
	}
}

// TestSearchMatchesReferenceOnCorpus runs loops of all seven corpus families
// (corpus.DefaultSpec, the benchmark's corpus) under every strategy,
// traced and untraced, against referenceSearch: the loops
// whose placement survives many intervals (moddist's, uas's converged
// sweeps) are where an attempt reuses the last one's instance graph. Among
// them must be loops on which moddist's skip-ahead jumps eight or more
// intervals.
func TestSearchMatchesReferenceOnCorpus(t *testing.T) {
	perFamily := 6
	if testing.Short() {
		perFamily = 2
	}
	spec := corpus.DefaultSpec()
	seen := map[string]int{}
	var loops []*ddg.Graph
	for i := 0; len(seen) < corpus.NumShapes || slices.Min(slices.Collect(maps.Values(seen))) < perFamily; i++ {
		g := spec.Loop(i)
		family := g.Name[strings.LastIndexByte(g.Name, '_')+1:]
		if seen[family] < perFamily {
			seen[family]++
			loops = append(loops, g)
		}
	}
	longJumps := 0
	for _, m := range []machine.Config{machine.MustParse("4c2b2l64r"), machine.MustParse("4c1b2l64r")} {
		for _, g := range loops {
			for _, strategy := range StrategyNames() {
				opts := Options{Strategy: strategy, Replicate: strategy == "paper"}
				requireParity(t, fmt.Sprintf("%s on %s (%s)", g.Name, m.Name, strategy), g, m, opts)
				if strategy != "moddist" {
					continue
				}
				// moddist's comms count is the search's: a first attempt that
				// fails the bus precheck jumps from MII+1 to MinBusII(comms).
				if res, err := referenceSearch(g, m, opts); err == nil && res.CommsBeforeReplication > m.BusComs(res.MII) &&
					m.MinBusII(res.CommsBeforeReplication)-(res.MII+1) >= 8 {
					longJumps++
				}
			}
		}
	}
	if longJumps == 0 {
		t.Error("no loop on which moddist skips eight or more intervals")
	}
}
