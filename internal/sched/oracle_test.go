package sched_test

// The II search on the retired scheduler is the oracle of the search on
// today's: every strategy runs twice per loop, once as registered and once
// with its scheduling pass (and uas's sweep) swapped for the retired
// bodies of *_reference_test.go, and the two results must agree byte for
// byte — interval, schedule, placement and the failed attempts tallied by
// cause.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

// retiredSchedule is pipeline.SchedulePass on the retired scheduler, under
// one rule the retired scheduler did not know: a failure below the
// placement's recurrence bound is a recurrence failure, whatever the
// priority order ran into. It takes no jump: the retired search climbs
// every interval.
type retiredSchedule struct{ sc *sched.Scratch }

func (retiredSchedule) Name() string { return "schedule" }

// reclassified lists the attempts the rule moved into the recurrence
// bucket since the last test read it.
var reclassified []string

func (p retiredSchedule) Run(ctx *pipeline.Context) error {
	s, err := sched.ReferenceScheduleLoopScratch(ctx.Placement, ctx.Machine, ctx.II, ctx.Opts.ZeroBusLatency,
		sched.Options{SkipRegisterCheck: ctx.Opts.IgnoreRegisterPressure}, p.sc)
	if err != nil {
		cause := pipeline.ClassifyFailure(err)
		if cause != pipeline.CauseRecurrence && sched.BelowRecurrence(ctx.Placement, ctx.Machine, ctx.II, ctx.Opts.ZeroBusLatency) {
			reclassified = append(reclassified, fmt.Sprintf("%s on %s (%s, zero bus %v) at II=%d: %s → %s",
				ctx.Graph.Name, ctx.Machine.Name, ctx.Opts.StrategyName(), ctx.Opts.ZeroBusLatency, ctx.II, cause, pipeline.CauseRecurrence))
			cause = pipeline.CauseRecurrence
		}
		ctx.Fail(cause)
		return nil
	}
	ctx.Schedule = s
	return nil
}

// logReclassified logs and forgets the attempts the rule moved.
func logReclassified(t *testing.T) {
	for _, a := range reclassified {
		t.Logf("below the recurrence bound: %s", a)
	}
	t.Logf("%d attempts reclassified", len(reclassified))
	reclassified = nil
}

// retiredUAS is pipeline.UASAssignPass on the retired sweep.
type retiredUAS struct{ sc *sched.Scratch }

func (retiredUAS) Name() string { return "uas-assign" }

func (p retiredUAS) Run(ctx *pipeline.Context) error {
	a, ok := sched.ReferenceUASAssignScratch(ctx.Graph, ctx.Machine, ctx.II, p.sc)
	if !ok {
		ctx.Fail(pipeline.CauseBus)
		return nil
	}
	ctx.Assign = a
	ctx.Placement = p.sc.Placement(ctx.Graph, a)
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	if m := ctx.Machine; m.Clustered() && ctx.CommsBeforeReplication > m.BusComs(ctx.II) {
		ctx.Fail(pipeline.CauseBus)
	}
	return nil
}

// strategies are the built-in strategies; the registry also lists the
// retired ones once they are registered.
var strategies = []string{"paper", "unified", "uas", "moddist"}

var registerRetired sync.Once

// retired names the strategy registered as name with the retired
// scheduler. The passes share one arena, so the oracle searches run one at
// a time.
func retired(t *testing.T, name string) string {
	registerRetired.Do(func() {
		sc := sched.NewScratch()
		for _, n := range strategies {
			s, err := pipeline.LookupStrategy(n)
			if err != nil {
				panic(err)
			}
			chain := make([]pipeline.Pass, len(s.Chain))
			for i, p := range s.Chain {
				switch p.(type) {
				case pipeline.SchedulePass:
					chain[i] = retiredSchedule{sc}
				case pipeline.UASAssignPass:
					chain[i] = retiredUAS{sc}
				default:
					chain[i] = p
				}
			}
			s.Name, s.Chain = "retired-"+n, chain
			pipeline.RegisterStrategy(s)
		}
	})
	if _, err := pipeline.LookupStrategy("retired-" + name); err != nil {
		t.Fatal(err)
	}
	return "retired-" + name
}

// digest prints everything a search returns that the scheduler decides.
func digest(res *pipeline.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	s := res.Schedule
	return fmt.Sprintf("II=%d MII=%d len=%d SC=%d comms=%d/%d repl=%d/%d/%d inc=%v live=%v home=%v replicas=%v time=%v",
		res.II, res.MII, res.Length, res.SC, res.CommsBeforeReplication, res.Comms,
		res.Replicated, res.Removed, res.ReplicationSteps, res.IIIncreases,
		s.MaxLive, res.Placement.Home, res.Placement.Replicas, s.Time)
}

// oracle compiles g on m under each strategy, today's scheduler against
// the retired one, each on an arena of its own kept across calls as the
// driver keeps its workers', and returns the failed attempts the searches
// made.
type oracle struct {
	now, then *pipeline.Arena
}

func newOracle() *oracle { return &oracle{pipeline.NewArena(), pipeline.NewArena()} }

func (o *oracle) check(t *testing.T, g *ddg.Graph, m machine.Config, strategy string, opts pipeline.Options) int {
	t.Helper()
	opts.Strategy = strategy
	res, err := pipeline.Search(context.Background(), g, m, opts, pipeline.SearchConfig{Arena: o.now})
	got := digest(res, err)
	opts.Strategy = retired(t, strategy)
	want := digest(pipeline.Search(context.Background(), g, m, opts, pipeline.SearchConfig{Arena: o.then}))
	if got != want {
		t.Fatalf("%s on %s, %s %+v:\n got  %s\n want %s", g.Name, m.Name, strategy, opts, got, want)
	}
	failed := 0
	if err == nil {
		for _, n := range res.IIIncreases {
			failed += n
		}
	}
	return failed
}

// strategyOptions are the options each strategy compiles with: the paper's
// chain replicates, the rivals have no replication pass.
func strategyOptions(name string, zeroBus bool) pipeline.Options {
	return pipeline.Options{Replicate: name == pipeline.DefaultStrategy, ZeroBusLatency: zeroBus, VerifySchedules: true}
}

// TestSearchMatchesRetiredSchedulerOnTheSuite: the suite on the six
// Table 1 machines, four strategies, real and zero bus latency.
func TestSearchMatchesRetiredSchedulerOnTheSuite(t *testing.T) {
	stride := 1
	if testing.Short() || sched.RaceDetector {
		stride = 13
	}
	loops := workload.SPECfp95()
	o := newOracle()
	defer logReclassified(t)
	failed := 0
	for _, m := range machine.PaperConfigs() {
		for _, name := range strategies {
			for _, zeroBus := range []bool{false, true} {
				for i := 0; i < len(loops); i += stride {
					failed += o.check(t, loops[i].Graph, m, name, strategyOptions(name, zeroBus))
				}
			}
		}
	}
	t.Logf("%d failed attempts", failed)
}

// TestSearchMatchesRetiredSchedulerOnAHeterogeneousMachine: the suite on
// two asymmetric machines, in the second of which two clusters each lack
// a class of units.
func TestSearchMatchesRetiredSchedulerOnAHeterogeneousMachine(t *testing.T) {
	stride := 1
	if testing.Short() || sched.RaceDetector {
		stride = 13
	}
	loops := workload.SPECfp95()
	o := newOracle()
	defer logReclassified(t)
	for _, fu := range [][][ddg.NumClasses]int{
		{{3, 1, 2}, {1, 3, 2}},
		{{2, 0, 1}, {1, 2, 1}, {0, 2, 2}},
	} {
		m, err := machine.NewHetero(1, 2, 32, fu)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"paper", "uas", "moddist"} {
			for i := 0; i < len(loops); i += stride {
				g := loops[i].Graph
				opts := strategyOptions(name, false)
				opts.MaxII = mii.MII(g, m) + 64 // bounds each climb: a loop that never schedules stops early
				o.check(t, g, m, name, opts)
			}
		}
	}
}

// TestSearchMatchesRetiredSchedulerOnTheCorpus: the first 3 000 loops of
// corpus-sim's population (bench/), screened as it screens them, on the
// headline machine.
func TestSearchMatchesRetiredSchedulerOnTheCorpus(t *testing.T) {
	n := 3000
	if testing.Short() || sched.RaceDetector {
		n = 200
	}
	m := machine.MustParse("4c2b2l64r")
	spec := corpus.DefaultSpec()
	spec.Seed = 20031203
	screen := pipeline.NewArena()
	o := newOracle()
	defer logReclassified(t)
	failed := 0
	for i, kept := 0, 0; kept < n; i++ {
		g := spec.Loop(i)
		screenOpts := pipeline.Options{Strategy: "uas", MaxII: mii.MII(g, m) + 128}
		if _, err := pipeline.CompileContextArena(context.Background(), g, m, screenOpts, screen); err != nil {
			continue
		}
		kept++
		for _, name := range strategies {
			failed += o.check(t, g, m, name, strategyOptions(name, false))
		}
	}
	t.Logf("%d failed attempts", failed)
}
