package service

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// testJobs builds a small batch of real workload loops.
func testJobs(t *testing.T, bench string, n int) []driver.Job {
	t.Helper()
	loops := workload.LoopsFor(bench)
	m := machine.MustParse("4c1b2l64r")
	var jobs []driver.Job
	// Skip loops isomorphic to an already-picked one: several tests gate a
	// job via its Store.Load call, and the compiler's canonical cache tier
	// serves isomorphic duplicates without ever consulting the store.
	seen := map[uint64]bool{}
	for _, l := range loops {
		if len(jobs) == n {
			break
		}
		if cf := l.Graph.CanonicalFingerprint(); !seen[cf] {
			seen[cf] = true
			jobs = append(jobs, driver.Job{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: true}})
		}
	}
	return jobs
}

func waitDone(t *testing.T, s *Server, id string) Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := s.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v", id, err)
	}
	return st
}

func TestSubmitPollWait(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	jobs := testJobs(t, "mgrid", 8)

	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Job(id); !ok {
		t.Fatal("ticket not pollable right after submit")
	}
	st := waitDone(t, s, id)
	if st.State != StateDone || st.Err != nil {
		t.Fatalf("state %v err %v", st.State, st.Err)
	}
	if len(st.Outcomes) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(st.Outcomes), len(jobs))
	}
	for i, o := range st.Outcomes {
		if o.Err != nil || o.Result == nil {
			t.Fatalf("job %d failed: %v", i, o.Err)
		}
	}
	if st.Created.IsZero() || st.Started.IsZero() || st.Finished.IsZero() {
		t.Fatal("lifecycle timestamps missing")
	}
	stats := s.Stats()
	if stats.Completed != 1 || stats.JobsCompiled != uint64(len(jobs)) {
		t.Fatalf("stats: %+v", stats)
	}
}

// gateStore blocks every Load until the gate closes: it holds a ticket
// mid-batch deterministically (the store is consulted on each LRU miss,
// inside the compile worker, before the compile budget). Saves are
// discarded.
type gateStore struct{ gate chan struct{} }

func (g *gateStore) Load(driver.Job) (*pipeline.Result, error, bool) {
	<-g.gate
	return nil, nil, false
}

func (g *gateStore) Save(driver.Job, *pipeline.Result, error) {}

// TestAdmissionControl: QueueDepth bounds the unfinished tickets. With one
// ticket held at the gate and a depth of one, the next submit is refused
// with a retry hint and counted; once the ticket finishes, its place is
// free again.
func TestAdmissionControl(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	s := New(Config{QueueDepth: 1, Store: &gateStore{gate: gate}})
	defer s.Shutdown(context.Background())
	defer release() // runs before Shutdown: lets the held batch finish

	id1, err := s.Submit(testJobs(t, "fpppp", 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(testJobs(t, "mgrid", 2), SubmitOptions{})
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("err = %v, want *ErrQueueFull", err)
	}
	if full.RetryAfter <= 0 {
		t.Fatal("queue-full rejection carries no retry hint")
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected counter = %d", s.Stats().Rejected)
	}
	release()
	waitDone(t, s, id1)
	if _, err := s.Submit(testJobs(t, "mgrid", 2), SubmitOptions{}); err != nil {
		t.Fatalf("submit after the held ticket finished: %v", err)
	}
}

// TestCancelQueuedTicket: a ticket cancelled while its jobs are held ends
// Canceled with the request as its cause, and a ticket held beside it
// finishes untouched.
func TestCancelQueuedTicket(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	s := New(Config{QueueDepth: 4, Workers: 1, Store: &gateStore{gate: gate}})
	defer s.Shutdown(context.Background())
	defer release()

	id1, err := s.Submit(testJobs(t, "fpppp", 2), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.Submit(testJobs(t, "mgrid", 4), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Cancel(id2) {
		t.Fatal("cancel of a held ticket failed")
	}
	release()
	st := waitDone(t, s, id2)
	if st.State != StateCanceled {
		t.Fatalf("state = %v, want canceled", st.State)
	}
	if st.Err == nil || !errors.Is(st.Err, errCanceled) {
		t.Fatalf("cancellation cause missing: %v", st.Err)
	}
	if st := waitDone(t, s, id1); st.State != StateDone {
		t.Fatalf("bystander ticket ended %v (%v)", st.State, st.Err)
	}
	if s.Cancel("job-999") {
		t.Fatal("cancel of an unknown ticket succeeded")
	}
}

// TestDeadlineExpiresQueuedTicket: a ticket whose deadline passes while its
// jobs are held ends Canceled with the deadline as its cause.
func TestDeadlineExpiresQueuedTicket(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{QueueDepth: 4, Workers: 1, Store: &gateStore{gate: gate}})
	defer s.Shutdown(context.Background())

	id, err := s.Submit(testJobs(t, "mgrid", 4), SubmitOptions{Timeout: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	tk, _ := s.lookup(id)
	<-tk.ctx.Done()
	close(gate)
	st := waitDone(t, s, id)
	if st.State != StateCanceled {
		t.Fatalf("state = %v, want canceled", st.State)
	}
	if st.Err == nil || !errors.Is(st.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", st.Err)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := New(Config{Workers: 2})
	jobs := testJobs(t, "mgrid", 6)
	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The ticket finished during the drain.
	st, ok := s.Job(id)
	if !ok || st.State != StateDone {
		t.Fatalf("ticket after drain: %+v ok=%v", st, ok)
	}
	if _, err := s.Submit(jobs, SubmitOptions{}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("submit during drain: %v", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	// The batch is held at the gate, so the graceful drain cannot finish;
	// the deadline path must cancel the ticket and still wait for its
	// goroutine to end.
	gate := make(chan struct{})
	s := New(Config{Workers: 1, Store: &gateStore{gate: gate}})
	id, err := s.Submit(testJobs(t, "wave5", 8), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.AfterFunc(200*time.Millisecond, func() { close(gate) })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown = %v, want deadline exceeded", err)
	}
	st, ok := s.Job(id)
	if !ok {
		t.Fatal("ticket vanished")
	}
	if st.State != StateCanceled {
		t.Fatalf("ticket state after forced shutdown: %v", st.State)
	}
}

func TestDiskCachePersistsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	jobs := testJobs(t, "tomcatv", 6)

	cache1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: cache1})
	id, err := s1.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitDone(t, s1, id); st.Err != nil {
		t.Fatal(st.Err)
	}
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cache1.Close(); err != nil { // flushes the write-behind queue
		t.Fatal(err)
	}
	if n := cache1.Len(); n != len(jobs) {
		t.Fatalf("%d entries on disk, want %d", n, len(jobs))
	}

	// Restarted server, same directory: every job is a store hit.
	cache2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	s2 := New(Config{Store: cache2})
	defer s2.Shutdown(context.Background())
	id2, err := s2.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s2, id2)
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	for i, o := range st.Outcomes {
		if !o.CacheHit {
			t.Fatalf("job %d recompiled after restart", i)
		}
		if o.Result == nil || o.Result.II != st.Outcomes[i].Result.II {
			t.Fatalf("job %d: bad restored result", i)
		}
	}
	stats := s2.Stats()
	if stats.Cache.StoreHits == 0 || stats.Cache.Misses != 0 {
		t.Fatalf("restart did not hit the disk cache: %+v", stats.Cache)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	j := testJobs(t, "mgrid", 1)[0]

	// Write garbage at the job's path and make sure Load treats it as a
	// miss and cleans it up.
	res, cerr := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if cerr != nil {
		t.Fatal(cerr)
	}
	cache.Save(j, res, nil)
	cache.Close()

	cache2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	if _, _, ok := cache2.Load(j); !ok {
		t.Fatal("fresh entry did not load")
	}
	// Corrupt it.
	path := cache2.path(driver.JobKey(j))
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := cache2.Load(j); ok {
		t.Fatal("corrupt entry loaded")
	}
	if _, errs := cache2.Dropped(); errs == 0 {
		t.Fatal("corruption not accounted")
	}
	if cache2.Len() != 0 {
		t.Fatal("corrupt entry not discarded")
	}
}

// TestDiskCacheConcurrentSaveClose: Save racing Close must neither panic
// (send on closed channel) nor deadlock — dropped writes are acceptable.
func TestDiskCacheConcurrentSaveClose(t *testing.T) {
	j := testJobs(t, "mgrid", 1)[0]
	res, cerr := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if cerr != nil {
		t.Fatal(cerr)
	}
	for i := 0; i < 20; i++ {
		cache, err := OpenDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 5; k++ {
					cache.Save(j, res, nil)
				}
			}()
		}
		cache.Close()
		wg.Wait()
	}
}
