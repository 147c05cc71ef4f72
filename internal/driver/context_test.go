package driver

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"clusched/internal/corpus"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// TestCollectCancelMidFlight cancels a batch partway through and checks
// the contract: the collect returns promptly, every outcome is either
// a finished compilation or ctx.Err(), the finished ones are identical to
// a serial reference run, and the aggregate error accounts for every
// cancelled job.
func TestCollectCancelMidFlight(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv", "swim", "hydro2d")

	// Serial reference outcomes for determinism comparison.
	ref, err := collect(context.Background(), New(Config{Workers: 1, CacheSize: -1}), jobs)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	c := New(Config{Workers: 4, CacheSize: -1, Progress: func(done, total int) {
		if done == len(jobs)/4 {
			cancel()
		}
	}})
	start := time.Now()
	outs, batchErr := collect(ctx, c, jobs)
	elapsed := time.Since(start)
	cancel()

	if len(outs) != len(jobs) {
		t.Fatalf("got %d outcomes for %d jobs", len(outs), len(jobs))
	}
	// "Promptly": the batch takes seconds when run to completion; after the
	// cancel at ~25% it must stop within the in-flight stragglers' time.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled batch took %v", elapsed)
	}
	completed, cancelled := 0, 0
	for i, o := range outs {
		switch {
		case o.Err == nil:
			completed++
			r, rr := o.Result, ref[i].Result
			if r.II != rr.II || r.Length != rr.Length || r.Comms != rr.Comms || r.IIIncreases != rr.IIIncreases {
				t.Fatalf("job %d: completed outcome diverges from serial run: II %d/%d", i, r.II, rr.II)
			}
		case errors.Is(o.Err, context.Canceled):
			cancelled++
			if o.Result != nil {
				t.Fatalf("job %d: cancelled outcome carries a result", i)
			}
		default:
			t.Fatalf("job %d: unexpected error %v", i, o.Err)
		}
	}
	if cancelled == 0 {
		t.Fatal("cancellation landed after the whole batch completed; nothing was exercised")
	}
	if completed == 0 {
		t.Fatal("no job completed before the cancel, though progress fired")
	}
	var be *BatchError
	if !errors.As(batchErr, &be) {
		t.Fatalf("batch error = %v, want *BatchError", batchErr)
	}
	if len(be.Failed) != cancelled {
		t.Fatalf("BatchError lists %d failures, want %d cancelled jobs", len(be.Failed), cancelled)
	}
}

// TestCollectPreCancelled: an already-dead context yields a full
// slate of ctx.Err() outcomes and no compilation work.
func TestCollectPreCancelled(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(Config{Workers: 2})
	outs, err := collect(ctx, c, jobs)
	if err == nil {
		t.Fatal("want a batch error for a cancelled batch")
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, o.Err)
		}
	}
	if st := c.CacheStats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("cancelled batch polluted the cache: %+v", st)
	}
}

// TestCancelledOutcomesNotCached: a compilation aborted by its context
// must not poison the cache; a later caller with a live context gets a
// real result.
func TestCancelledOutcomesNotCached(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	j := jobs[0]
	c := New(Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Compile(ctx, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := c.Compile(context.Background(), j)
	if err != nil || res == nil {
		t.Fatalf("post-cancel compile failed: %v", err)
	}
	st := c.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the real compile)", st.Misses)
	}
}

// memStore is an in-memory Store for tests: a map plus access counters.
type memStore struct {
	mu    sync.Mutex
	m     map[string]memEntry
	loads int
	saves int
}

type memEntry struct {
	res *pipeline.Result
	err error
}

func newMemStore() *memStore { return &memStore{m: map[string]memEntry{}} }

func (s *memStore) Load(j Job) (*pipeline.Result, error, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.loads++
	e, ok := s.m[JobKey(j)]
	return e.res, e.err, ok
}

func (s *memStore) Save(j Job, res *pipeline.Result, cerr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	s.m[JobKey(j)] = memEntry{res: res, err: cerr}
}

// TestStoreSecondLevel: fresh compilations populate the store, and a new
// Compiler sharing the store serves them as StoreHits without compiling.
func TestStoreSecondLevel(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	store := newMemStore()

	c1 := New(Config{Store: store})
	if _, err := collect(context.Background(), c1, jobs); err != nil {
		t.Fatal(err)
	}
	st1 := c1.CacheStats()
	if st1.StoreHits != 0 {
		t.Fatalf("first run had %d store hits from an empty store", st1.StoreHits)
	}
	if store.saves != int(st1.Misses) {
		t.Fatalf("store saw %d saves for %d compilations", store.saves, st1.Misses)
	}

	// "Restarted server": a fresh compiler, same store, cold LRU.
	c2 := New(Config{Store: store})
	outs, err := collect(context.Background(), c2, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if !o.CacheHit {
			t.Fatalf("job %d: not served from the store after restart", i)
		}
	}
	st2 := c2.CacheStats()
	if st2.Misses != 0 {
		t.Fatalf("restarted compiler recompiled %d jobs", st2.Misses)
	}
	if st2.StoreHits == 0 {
		t.Fatal("restarted compiler recorded no store hits")
	}
	if st2.HitRate() != 1 {
		t.Fatalf("hit rate = %v, want 1", st2.HitRate())
	}
}

// TestStoreCachesFailures: compile errors ride the store like results.
func TestStoreCachesFailures(t *testing.T) {
	store := newMemStore()
	j := failingJob()
	c1 := New(Config{Store: store})
	if _, err := c1.Compile(context.Background(), j); err == nil {
		t.Fatal("want a compile failure")
	}
	c2 := New(Config{Store: store})
	_, err := c2.Compile(context.Background(), j)
	if err == nil {
		t.Fatal("stored failure was lost")
	}
	if st := c2.CacheStats(); st.StoreHits != 1 || st.Misses != 0 {
		t.Fatalf("failure not served from the store: %+v", st)
	}
}

// emptyStore says it holds every key and hands back neither a result nor
// an error.
type emptyStore struct{ saves int }

func (*emptyStore) Load(Job) (*pipeline.Result, error, bool) { return nil, nil, true }

func (s *emptyStore) Save(Job, *pipeline.Result, error) { s.saves++ }

// TestStoreAnswerWithNothingIsAMiss: a Store answer with neither a result
// nor an error answers nothing. The job compiles — an Outcome holds exactly
// one of Result and Err — and a repeat finds that compilation, not the
// empty answer.
func TestStoreAnswerWithNothingIsAMiss(t *testing.T) {
	j := sampleJobs(t, "tomcatv")[0]
	store := &emptyStore{}
	c := New(Config{Store: store})
	for run := 0; run < 2; run++ {
		if res, err := c.Compile(context.Background(), j); res == nil || err != nil {
			t.Fatalf("run %d: result %v, error %v; want a compilation", run, res, err)
		}
	}
	if st := c.CacheStats(); st.Misses != 1 || st.Hits != 1 || st.StoreHits != 0 {
		t.Fatalf("stats %+v, want 1 miss and 1 hit", st)
	}
	if store.saves != 1 {
		t.Fatalf("%d saves, want the compilation's", store.saves)
	}
}

// TestJobKeyDistinguishesOptions: the persistent key must separate every
// dimension of the job identity.
func TestJobKeyDistinguishesOptions(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	j := jobs[0]
	base := JobKey(j)
	j2 := j
	j2.Opts.ZeroBusLatency = true
	if JobKey(j2) == base {
		t.Fatal("options not part of the job key")
	}
	j3 := j
	j3.Machine.Name = "other"
	if JobKey(j3) == base {
		t.Fatal("machine not part of the job key")
	}
	j4 := j
	j4.Graph = jobs[1].Graph
	if JobKey(j4) == base {
		t.Fatal("graph not part of the job key")
	}
}

// TestCompileCancelledMidSearch: cancelling a compilation mid-search
// returns promptly with ctx.Err(), leaks no goroutines, and gives back its
// budget slot.
func TestCompileCancelledMidSearch(t *testing.T) {
	// Probe for a wide loop whose search outlives a 50ms deadline on the
	// one-bus machine (most 400-node wide loops sweep a long II ladder):
	// a compilation that long guarantees the cancel below lands
	// mid-search.
	var j Job
	probe := New(Config{CacheSize: -1})
	for seed := int64(1); seed <= 30 && j.Graph == nil; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := corpus.Generate(corpus.ShapeWide, "sweep", rng, 400, corpus.DefaultParams())
		cand := Job{Graph: g, Machine: machine.MustParse("4c1b2l64r"), Opts: pipeline.Options{Replicate: true}}
		pctx, pcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		if _, err := probe.Compile(pctx, cand); errors.Is(err, context.DeadlineExceeded) {
			j = cand
		}
		pcancel()
	}
	if j.Graph == nil {
		t.Fatal("no long-running compilation found in 30 probe seeds")
	}

	c := New(Config{CacheSize: -1})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := c.Compile(ctx, j)
		done <- err
	}()
	// Cancel only once the search is actually in flight, so the abort
	// lands mid-search, not before the first pass.
	for len(c.budget) == 0 && len(done) == 0 {
		runtime.Gosched()
	}
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled compile returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled compile did not return promptly")
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("cancellation took %v to take effect", waited)
	}
	if n := len(c.budget); n != 0 {
		t.Fatalf("budget not drained after cancellation: %d slots held", n)
	}
	// Nothing the compilation started may outlive it.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutines leaked: %d running, baseline %d", n, baseline)
	}
}
