package vliwsim_test

import (
	"runtime"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/corpus/validate"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/vliwsim"
	"clusched/internal/workload"
)

// paperOpts is the paper strategy with its replication pass, the headline
// configuration corpus validation runs.
var paperOpts = pipeline.Options{Strategy: pipeline.DefaultStrategy, Replicate: true}

// pinnedSample is what the benchmarks run over: the first 64 loops of the
// default generated corpus (seed 1, ~28 nodes each), compiled by the paper
// strategy for the 4-cluster machine the corpus gate uses. One benchmark
// op is one loop, so ns/op compares with the bench ledger's per-loop rows.
func pinnedSample(tb testing.TB) []*pipeline.Result {
	tb.Helper()
	spec := corpus.DefaultSpec()
	m := machine.MustParse("4c2b2l64r")
	var sample []*pipeline.Result
	for i := 0; len(sample) < 64; i++ {
		res, err := pipeline.Compile(spec.Loop(i), m, paperOpts)
		if err != nil {
			continue
		}
		sample = append(sample, res)
	}
	return sample
}

func BenchmarkMeasure(b *testing.B) {
	sample := pinnedSample(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := vliwsim.Measure(sample[i%len(sample)].Schedule, validate.DefaultIters); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecute(b *testing.B) {
	sample := pinnedSample(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, _, err := vliwsim.Execute(sample[i%len(sample)].Schedule, validate.DefaultIters); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReference(b *testing.B) {
	sample := pinnedSample(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		vliwsim.Reference(sample[i%len(sample)].Loop, validate.DefaultIters)
	}
}

func BenchmarkValidateSchedule(b *testing.B) {
	sample := pinnedSample(b)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if d := validate.Schedule(sample[i%len(sample)], pipeline.DefaultStrategy, paperOpts, i, 0, 0); d != nil {
			b.Fatal(d)
		}
	}
}

// pinnedSchedule is what the allocation pins are stated for: the first
// 29-node loop of the SPECfp95 suite (the suite's mean size), compiled by
// the paper strategy.
func pinnedSchedule(t *testing.T) *pipeline.Result {
	t.Helper()
	for _, l := range workload.SPECfp95() {
		if l.Graph.NumNodes() == 29 {
			res, err := pipeline.Compile(l.Graph, machine.MustParse("4c2b2l64r"), paperOpts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
	}
	t.Fatal("suite has no 29-node loop")
	return nil
}

// steadyAllocs is the fewest heap allocations one call of f makes over
// many calls. It is the minimum, not testing.AllocsPerRun's mean, because
// the scratch comes from a sync.Pool: a collection empties the pool, and
// under the race detector Put drops a quarter of what it is given, so some
// calls rebuild their scratch. The steady state is the call that did not.
func steadyAllocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm the pool
	least := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 50; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestMeasureAllocs pins what a validation costs the allocator. Today it
// is one allocation, the Report; the bound leaves room for the TraceDiff
// text and little else. The executor this one replaced made 66 for this
// loop: event lists, value tables and traces of two executions, and a
// slice per reference iteration.
func TestMeasureAllocs(t *testing.T) {
	s := pinnedSchedule(t).Schedule
	n := steadyAllocs(func() {
		if _, err := vliwsim.Measure(s, validate.DefaultIters); err != nil {
			t.Fatal(err)
		}
	})
	if n > 4 {
		t.Errorf("Measure: %d allocs in steady state, want <= 4", n)
	}
}

// TestValidateScheduleAllocsWhenConfirmed: a confirmed schedule costs what
// its Measure costs. The Divergence record (a copied pipeline.Options
// among its fields) is built only for a schedule that has diverged.
func TestValidateScheduleAllocsWhenConfirmed(t *testing.T) {
	res := pinnedSchedule(t)
	measure := steadyAllocs(func() {
		if _, err := vliwsim.Measure(res.Schedule, validate.DefaultIters); err != nil {
			t.Fatal(err)
		}
	})
	confirmed := steadyAllocs(func() {
		if d := validate.Schedule(res, pipeline.DefaultStrategy, paperOpts, -1, 0, 0); d != nil {
			t.Fatal(d)
		}
	})
	if confirmed != measure {
		t.Errorf("validate.Schedule of a confirmed schedule: %d allocs, its Measure %d", confirmed, measure)
	}
}
