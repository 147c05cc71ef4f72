package pipeline

import (
	"fmt"
	"math/rand"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/telemetry"
	"clusched/internal/workload"
)

// The search's accelerations — skip-ahead (skipahead.go), speculative lanes
// and tracing (search.go) — must be invisible in every observable output:
// these tests run Search under each execution mode beside the naive
// referenceSearch and require bit-identical Results — the acceptance bar
// for all three.

// requireSameResult fails unless both searches produced identical Result
// fields (or identical failure).
func requireSameResult(t *testing.T, label string, skip, lin *Result, skipErr, linErr error) {
	t.Helper()
	if (skipErr == nil) != (linErr == nil) {
		t.Fatalf("%s: skip err=%v, linear err=%v", label, skipErr, linErr)
	}
	if skipErr != nil {
		if skipErr.Error() != linErr.Error() {
			t.Fatalf("%s: differing errors:\n  skip:   %v\n  linear: %v", label, skipErr, linErr)
		}
		return
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
	if a, b := fmt.Sprint(skip.Schedule.Time), fmt.Sprint(lin.Schedule.Time); a != b {
		t.Fatalf("%s: issue-cycle mismatch:\n  got:  %s\n  want: %s", label, a, b)
	}
	if a, b := fmt.Sprint(skip.Placement.Home, skip.Placement.Replicas),
		fmt.Sprint(lin.Placement.Home, lin.Placement.Replicas); a != b {
		t.Fatalf("%s: placement mismatch:\n  got:  %s\n  want: %s", label, a, b)
	}
}

// requireParity compiles one job through Search once per execution mode —
// each lane count, untraced and traced — and requires every Result
// bit-identical to referenceSearch's.
func requireParity(t *testing.T, label string, g *ddg.Graph, m machine.Config, opts Options, laneCounts ...int) {
	t.Helper()
	want, wantErr := referenceSearch(g, m, opts)
	for _, lanes := range laneCounts {
		for _, tr := range []*telemetry.Trace{nil, telemetry.NewTrace()} {
			got, err := Search(t.Context(), g, m, opts, SearchConfig{Lanes: lanes, Trace: tr})
			mode := fmt.Sprintf("%s (k=%d, traced=%t)", label, lanes, tr != nil)
			requireSameResult(t, mode, got, want, err, wantErr)
		}
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
				requireParity(t, label, l.Graph, m, opts, 1)
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
	shapes := []corpus.Shape{corpus.ShapeBroadcast, corpus.ShapeParallel, corpus.ShapeReduction, corpus.ShapeWide}
	for trial := 0; trial < trials; trial++ {
		shape := shapes[rng.Intn(len(shapes))]
		// Sizes below the generators' structural minimum produce invalid
		// graphs (the suite profiles never go that small).
		size := 10 + rng.Intn(40)
		g := corpus.Generate(shape, "rnd", rng, size, corpus.DefaultParams())
		m := configs[rng.Intn(len(configs))]
		opts := Options{Replicate: rng.Intn(2) == 0}
		requireParity(t, g.Name+" on "+m.Name, g, m, opts, 1)
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

// TestSkipAheadSkipsAttempts verifies the jump fires on a bus-bound
// compilation: the production search must run strictly fewer partition
// passes than the linear search while producing the same result.
func TestSkipAheadSkipsAttempts(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	rng := rand.New(rand.NewSource(7))
	fired := false
	for trial := 0; trial < 50 && !fired; trial++ {
		g := corpus.Generate(corpus.ShapeWide, "wide", rng, 24+rng.Intn(24), corpus.DefaultParams())
		chain := func(n *int) []Pass {
			return []Pass{countingPass{PartitionPass{}, n}, ReplicationPass{}, LengthReplicationPass{}, SchedulePass{}, VerifyPass{}}
		}
		var nSkip, nLin int
		skip, skipErr := search(t.Context(), g, m, Options{}, chain(&nSkip), nil, true, SearchConfig{})
		lin, linErr := referenceChain(g, m, Options{}, chain(&nLin))
		requireSameResult(t, g.Name, skip, lin, skipErr, linErr)
		if nSkip < nLin {
			fired = true
		}
	}
	if !fired {
		t.Fatal("skip-ahead never skipped an attempt on 50 bus-bound loops")
	}
}

// The speculative multi-II search (specsearch.go) is held to the same bar
// as the skip-ahead: bit-identical Results — II, issue cycles, placement,
// cause tallies — against the reference linear search, across the suite,
// the machine configurations, every registered strategy and random loops.

// specLanes is the speculation width the parity suite races; CI runs these
// tests under -race, so the width also shakes out lane interleavings.
const specLanes = 4

// TestSpeculativeMatchesLinearOnSuite races every SPECfp95 loop on every
// paper configuration, with and without replication, against the linear
// search. Short mode samples one configuration; the full run covers all
// six.
func TestSpeculativeMatchesLinearOnSuite(t *testing.T) {
	configs := machine.PaperConfigs()
	if testing.Short() {
		configs = configs[2:3] // 4c1b2l64r: the most search-bound config
	}
	loops := workload.SPECfp95()
	for _, m := range configs {
		for _, opts := range []Options{{}, {Replicate: true}} {
			for _, l := range loops {
				label := l.Graph.Name + " on " + m.Name + " (spec)"
				if opts.Replicate {
					label += " (replicate)"
				}
				requireParity(t, label, l.Graph, m, opts, 2, specLanes)
			}
		}
	}
}

// TestSpeculativeMatchesLinearOnStrategies covers every registered
// strategy: the replay capability differs per strategy (partition-lineage
// replay for paper/unified, stateless no-ops for uas/moddist), so each
// needs its own parity evidence.
func TestSpeculativeMatchesLinearOnStrategies(t *testing.T) {
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
				requireParity(t, g.Name+" on "+m.Name+" ("+strat+")", g, m, opts, 1, 2, specLanes)
			}
		}
	}
}

// TestSpeculativeMatchesLinearOnRandomLoops is the property test: random
// loops of every workload shape, random paper machines, random strategies
// and random lane counts (including degenerate widths 1 and 2).
func TestSpeculativeMatchesLinearOnRandomLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	configs := machine.PaperConfigs()
	strategies := StrategyNames()
	trials := 300
	if testing.Short() {
		trials = 60
	}
	shapes := []corpus.Shape{corpus.ShapeBroadcast, corpus.ShapeParallel, corpus.ShapeReduction, corpus.ShapeWide}
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
		requireParity(t, label, g, m, opts, 1+rng.Intn(6))
	}
}
