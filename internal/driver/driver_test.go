package driver

import (
	"context"
	"errors"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// sampleJobs builds a batch over real workload loops for one machine.
func sampleJobs(t *testing.T, benches ...string) []Job {
	t.Helper()
	m := machine.MustParse("4c1b2l64r")
	var jobs []Job
	for _, b := range benches {
		loops := workload.LoopsFor(b)
		if len(loops) == 0 {
			t.Fatalf("no loops for %s", b)
		}
		for _, l := range loops {
			jobs = append(jobs, Job{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: true}})
		}
	}
	return jobs
}

// failingJob returns a job that cannot schedule: its recurrence MII exceeds
// the forced MaxII.
func failingJob() Job {
	b := ddg.NewBuilder("unschedulable")
	v := b.Node("v", ddg.OpFDiv)
	b.Edge(v, v, 1) // RecMII ≥ the FDiv latency (18)
	s := b.Node("s", ddg.OpStore)
	b.Edge(v, s, 0)
	return Job{Graph: b.MustBuild(), Machine: machine.MustParse("4c1b2l64r"), Opts: pipeline.Options{MaxII: 2}}
}

// collect drains c.Stream(ctx, jobs) into outcomes index-aligned with jobs,
// and the batch's aggregate error: the ordered collect clusched.Collect
// makes over any backend.
func collect(ctx context.Context, c *Compiler, jobs []Job) ([]Outcome, error) {
	outs := make([]Outcome, len(jobs))
	for i, out := range c.Stream(ctx, jobs) {
		outs[i] = out
	}
	return outs, AggregateError(outs)
}

func TestCollectDeterministicUnderConcurrency(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv", "mgrid")
	// Many workers, no cache: every run does the full work concurrently.
	run := func() []Outcome {
		c := New(Config{Workers: 8, CacheSize: -1})
		outs, err := collect(context.Background(), c, jobs)
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	a, b := run(), run()
	for i := range jobs {
		if a[i].Job.Graph != jobs[i].Graph {
			t.Fatalf("outcome %d not aligned with its job", i)
		}
		ra, rb := a[i].Result, b[i].Result
		if ra.II != rb.II || ra.Length != rb.Length || ra.Comms != rb.Comms ||
			ra.IIIncreases != rb.IIIncreases {
			t.Fatalf("job %d (%s): runs diverge: II %d/%d length %d/%d",
				i, jobs[i].Graph.Name, ra.II, rb.II, ra.Length, rb.Length)
		}
		// And the concurrent result matches a direct serial compile.
		serial, err := pipeline.Compile(jobs[i].Graph, jobs[i].Machine, jobs[i].Opts)
		if err != nil {
			t.Fatal(err)
		}
		if ra.II != serial.II || ra.Comms != serial.Comms {
			t.Fatalf("job %d (%s): concurrent (II=%d) vs serial (II=%d)",
				i, jobs[i].Graph.Name, ra.II, serial.II)
		}
	}
}

func TestCacheAccounting(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	c := New(Config{Workers: 4})

	outs, err := collect(context.Background(), c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs {
		if outs[i].CacheHit {
			t.Fatalf("job %d: cache hit on a cold cache", i)
		}
	}
	st := c.CacheStats()
	if st.Hits != 0 || st.Misses != uint64(len(jobs)) || st.Entries != len(jobs) {
		t.Fatalf("after first run: %+v, want 0 hits / %d misses / %d entries", st, len(jobs), len(jobs))
	}

	outs2, err := collect(context.Background(), c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range outs2 {
		if !outs2[i].CacheHit {
			t.Fatalf("job %d: expected cache hit on the second run", i)
		}
		if outs2[i].Result != outs[i].Result {
			t.Fatalf("job %d: cache returned a different result pointer", i)
		}
	}
	st = c.CacheStats()
	if st.Hits != uint64(len(jobs)) || st.Misses != uint64(len(jobs)) {
		t.Fatalf("after second run: %+v, want %d hits / %d misses", st, len(jobs), len(jobs))
	}
	assertBooked(t, c, outs, outs2)

	c.ResetCache()
	st = c.CacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("after reset: %+v, want all zero", st)
	}
	if _, err := collect(context.Background(), c, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	if st = c.CacheStats(); st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after reset+run: %+v, want 1 miss / 1 entry", st)
	}
}

func TestErrorAggregation(t *testing.T) {
	good := sampleJobs(t, "tomcatv")
	bad := failingJob()
	jobs := []Job{good[0], bad, good[1], bad}

	c := New(Config{Workers: 4})
	outs, err := collect(context.Background(), c, jobs)
	if err == nil {
		t.Fatal("expected a batch error")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError", err)
	}
	if be.Total != 4 || len(be.Failed) != 2 {
		t.Fatalf("batch error %v: total=%d failed=%d, want 4/2", be, be.Total, len(be.Failed))
	}
	if be.Failed[0].Index != 1 || be.Failed[1].Index != 3 {
		t.Fatalf("failed indices %d,%d, want 1,3", be.Failed[0].Index, be.Failed[1].Index)
	}
	if be.Failed[0].Loop != "unschedulable" {
		t.Fatalf("failed loop %q", be.Failed[0].Loop)
	}
	// Outcomes are complete: successes alongside failures.
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatal("good jobs reported errors")
	}
	if outs[1].Err == nil || outs[1].Result != nil {
		t.Fatal("bad job should carry an error and no result")
	}
	// Failures are cached like successes.
	if _, err := c.Compile(context.Background(), bad); err == nil {
		t.Fatal("cached failure lost its error")
	}
	if st := c.CacheStats(); st.Hits == 0 {
		t.Fatalf("failure was recompiled instead of served from cache: %+v", st)
	}
	assertBooked(t, c, outs, outs[:1]) // a failure is an answer; so was the unary repeat
}

func TestProgressCallback(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	var calls []int
	c := New(Config{Workers: 4, Progress: func(done, total int) {
		if total != len(jobs) {
			t.Errorf("total = %d, want %d", total, len(jobs))
		}
		calls = append(calls, done)
	}})
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(jobs) {
		t.Fatalf("%d progress calls, want %d", len(calls), len(jobs))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress call %d reported done=%d, want strictly increasing", i, d)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv") // 12 distinct loops
	if len(jobs) < 6 {
		t.Fatalf("want ≥6 jobs, got %d", len(jobs))
	}
	c := New(Config{Workers: 1, CacheSize: 4})
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Entries != 4 {
		t.Fatalf("entries = %d, want the cache capped at 4", st.Entries)
	}
	// With one worker the batch ran in order: the last 4 jobs are resident,
	// the first was evicted long ago.
	last := jobs[len(jobs)-1]
	if _, err := c.Compile(context.Background(), last); err != nil {
		t.Fatal(err)
	}
	if now := c.CacheStats(); now.Hits != st.Hits+1 {
		t.Fatalf("most recent job missed the cache: %+v -> %+v", st, now)
	}
	st = c.CacheStats()
	if _, err := c.Compile(context.Background(), jobs[0]); err != nil {
		t.Fatal(err)
	}
	if now := c.CacheStats(); now.Misses != st.Misses+1 {
		t.Fatalf("evicted job hit the cache: %+v -> %+v", st, now)
	}
}

func TestInFlightDeduplication(t *testing.T) {
	// Eight identical jobs on eight workers: the leader compiles once,
	// every follower joins its flight (or hits the cache afterwards) —
	// exactly one miss however the goroutines interleave.
	job := sampleJobs(t, "tomcatv")[0]
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = job
	}
	c := New(Config{Workers: 8})
	outs, err := collect(context.Background(), c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != 1 || st.Hits != 7 {
		t.Fatalf("stats %+v, want exactly 1 miss / 7 hits", st)
	}
	assertBooked(t, c, outs)
	for i := range outs {
		if outs[i].Result != outs[0].Result {
			t.Fatalf("job %d did not share the leader's result", i)
		}
	}
}

func TestCacheDisabled(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")[:3]
	c := New(Config{CacheSize: -1})
	for run := 0; run < 2; run++ {
		outs, err := collect(context.Background(), c, jobs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outs {
			if outs[i].CacheHit {
				t.Fatal("cache hit with caching disabled")
			}
		}
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache recorded stats: %+v", st)
	}
}

func TestEmptyBatch(t *testing.T) {
	outs, err := collect(context.Background(), New(Config{}), nil)
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty batch: %v, %d outcomes", err, len(outs))
	}
}

func TestMachineKeyDistinguishesHetero(t *testing.T) {
	a, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{{2, 1, 1}, {0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{{1, 2, 1}, {1, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name {
		t.Skip("hetero names already differ; key collision impossible")
	}
	if machineKey(a) == machineKey(b) {
		t.Fatal("different hetero machines share a cache key")
	}
}
