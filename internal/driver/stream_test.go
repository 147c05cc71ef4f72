package driver

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/pipeline"
)

// TestStreamYieldsEveryJobOnce: each job index appears exactly once, with
// the same outcome a one-worker engine produces for it.
func TestStreamYieldsEveryJobOnce(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	c := New(Config{Workers: 4})
	want, err := collect(context.Background(), New(Config{Workers: 1}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, len(jobs))
	n := 0
	var outs []Outcome
	for i, out := range c.Stream(context.Background(), jobs) {
		if i < 0 || i >= len(jobs) {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("index %d yielded twice", i)
		}
		seen[i] = true
		n++
		outs = append(outs, out)
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if out.Result.II != want[i].Result.II || out.Result.Length != want[i].Result.Length {
			t.Fatalf("job %d: streamed result diverges from batch result", i)
		}
	}
	if n != len(jobs) {
		t.Fatalf("yielded %d outcomes for %d jobs", n, len(jobs))
	}
	assertBooked(t, c, outs)
}

// TestStreamFirstOutcomeBeforeBatchDone: with one worker the stream hands
// over the first outcome while later jobs have not run yet — batch results
// are consumable incrementally, not only at the end.
func TestStreamFirstOutcomeBeforeBatchDone(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	if len(jobs) < 3 {
		t.Fatalf("want ≥3 jobs, got %d", len(jobs))
	}
	var compiled atomic.Int64
	c := New(Config{Workers: 1, Progress: func(done, total int) { compiled.Store(int64(done)) }})
	first := true
	for _, out := range c.Stream(context.Background(), jobs) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if first {
			first = false
			if int(compiled.Load()) >= len(jobs) {
				t.Fatalf("first outcome arrived only after all %d jobs compiled", len(jobs))
			}
		}
	}
}

// TestStreamEarlyStopCancelsRemainingWork: breaking out of the iteration
// must not compile (or leak workers on) the rest of the batch.
func TestStreamEarlyStopCancelsRemainingWork(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	var compiled atomic.Int64
	c := New(Config{Workers: 1, Progress: func(done, total int) { compiled.Store(int64(done)) }})
	for range c.Stream(context.Background(), jobs) {
		break
	}
	if int(compiled.Load()) >= len(jobs) {
		t.Fatalf("early stop still compiled all %d jobs", len(jobs))
	}
}

// TestStreamCancelledPrefix: cancelling mid-stream leaves completed
// outcomes intact and stamps every remaining job with the context error —
// no job is silently dropped.
func TestStreamCancelledPrefix(t *testing.T) {
	jobs := sampleJobs(t, "hydro2d")
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Config{Workers: 1})
	var ok, cancelled, yields int
	var outs []Outcome
	for _, out := range c.Stream(ctx, jobs) {
		yields++
		outs = append(outs, out)
		switch {
		case out.Err == nil:
			ok++
			if cancelled > 0 {
				t.Fatal("successful outcome after a cancelled one from a 1-worker stream")
			}
		case errors.Is(out.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("unexpected error: %v", out.Err)
		}
		if ok == 2 {
			cancel()
		}
	}
	cancel()
	if yields != len(jobs) {
		t.Fatalf("yielded %d outcomes for %d jobs", yields, len(jobs))
	}
	if ok < 2 || cancelled == 0 {
		t.Fatalf("ok=%d cancelled=%d, want a clean completed prefix plus cancellations", ok, cancelled)
	}
	// The cancelled remainder is booked as nothing.
	assertBooked(t, c, outs)
}

// TestStreamConsumerPanicDrainsWorkers: a panic in the consumer's loop
// body unwinds through yield; the stream's cleanup must still cancel and
// drain the pool — no worker stuck forever on the unbuffered send.
func TestStreamConsumerPanicDrainsWorkers(t *testing.T) {
	jobs := sampleJobs(t, "hydro2d")
	c := New(Config{Workers: 2})
	base := runtime.NumGoroutine()
	func() {
		defer func() { recover() }()
		for range c.Stream(context.Background(), jobs) {
			panic("consumer exploded")
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			t.Fatalf("worker goroutines leaked after consumer panic: %d > %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The engine stays usable.
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}
}

// startProbe is a Store that only reports each job a worker starts to serve:
// an engine consults its Store on every miss, before compiling.
type startProbe struct{ started func(Job) }

func (p startProbe) Load(j Job) (*pipeline.Result, error, bool) {
	p.started(j)
	return nil, nil, false
}

func (startProbe) Save(Job, *pipeline.Result, error) {}

// TestStreamAdmittedStartsNoJobBeforeItsAdmit fills and admits a batch job
// by job while it streams: a worker starts job i only once Admit has been
// called i+1 times, and reads the job the admitter wrote.
func TestStreamAdmittedStartsNoJobBeforeItsAdmit(t *testing.T) {
	src := sampleJobs(t, "tomcatv")
	index := make(map[*ddg.Graph]int, len(src))
	for i, j := range src {
		index[j.Graph] = i
	}
	var admitted atomic.Int64
	c := New(Config{Workers: 2, Store: startProbe{func(j Job) {
		if i, ok := index[j.Graph]; !ok || int64(i) >= admitted.Load() {
			t.Errorf("a worker started job %d (known %v) with %d admitted", i, ok, admitted.Load())
		}
	}}})
	jobs := make([]Job, len(src))
	g := NewGate(len(jobs))
	go func() {
		for i := range jobs {
			time.Sleep(time.Millisecond)
			jobs[i] = src[i]
			admitted.Add(1)
			g.Admit()
		}
		g.Close()
	}()
	seen := make([]bool, len(jobs))
	for i, out := range StreamAdmitted(c, context.Background(), jobs, g) {
		if seen[i] {
			t.Fatalf("job %d yielded twice", i)
		}
		seen[i] = true
		if out.Err != nil || out.Job.Graph != src[i].Graph {
			t.Fatalf("job %d: err %v, graph %p, want the admitted job's", i, out.Err, out.Job.Graph)
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		t.Fatalf("job %d never yielded", i)
	}
}

// TestStreamAdmittedYieldsBeforeTheLastAdmit: the first outcome of a gated
// batch reaches the consumer while the admitter still holds the last job.
func TestStreamAdmittedYieldsBeforeTheLastAdmit(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	last := len(jobs) - 1
	c := New(Config{Workers: 1})
	g := NewGate(len(jobs))
	first := make(chan struct{})
	go func() {
		for range last {
			g.Admit()
		}
		select {
		case <-first:
		case <-time.After(10 * time.Second):
			t.Error("no outcome arrived before the last job was admitted")
		}
		g.Admit()
		g.Close()
	}()
	n := 0
	for _, out := range StreamAdmitted(c, context.Background(), jobs, g) {
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		if n++; n == 1 {
			close(first)
		}
	}
	if n != len(jobs) {
		t.Fatalf("yielded %d outcomes for %d jobs", n, len(jobs))
	}
}

// TestStreamAdmittedCancelledMidAdmission cancels a gated stream while its
// admitter is still writing slots; the admitter admits a few more, writes
// the rest without admitting them — one even after Close — and closes.
// Every index yields once: a served job its result, an admitted job not
// served its Job with the cancellation, and a job never admitted the
// cancellation with a zero Job, as its slot was not read.
func TestStreamAdmittedCancelledMidAdmission(t *testing.T) {
	src := sampleJobs(t, "tomcatv")
	if len(src) < 8 {
		t.Fatalf("want ≥8 jobs, got %d", len(src))
	}
	const before, after = 2, 3 // admitted before and after the cancel
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(Config{Workers: 1})
	jobs := make([]Job, len(src))
	g := NewGate(len(jobs))
	go func() {
		for i := range before + after {
			if i == before {
				cancel()
			}
			jobs[i] = src[i]
			g.Admit()
		}
		for i := before + after; i < len(jobs)-1; i++ {
			jobs[i] = src[i]
		}
		g.Close()
		jobs[len(jobs)-1] = src[len(jobs)-1]
	}()
	outs := make([]*Outcome, len(jobs))
	for i, out := range StreamAdmitted(c, ctx, jobs, g) {
		if outs[i] != nil {
			t.Fatalf("job %d yielded twice", i)
		}
		outs[i] = &out
	}
	for i, out := range outs {
		switch {
		case out == nil:
			t.Fatalf("job %d never yielded", i)
		case i < before && out.Err == nil:
			if out.Result == nil || out.Job.Graph != src[i].Graph {
				t.Fatalf("served job %d: result %v, graph %p", i, out.Result, out.Job.Graph)
			}
		case !errors.Is(out.Err, context.Canceled):
			t.Fatalf("job %d: err %v, want context.Canceled", i, out.Err)
		case i < before+after && out.Job.Graph != src[i].Graph:
			t.Fatalf("admitted job %d yielded graph %p, want the admitted job's", i, out.Job.Graph)
		case i >= before+after && out.Job.Graph != nil:
			t.Fatalf("job %d was never admitted but yielded graph %p", i, out.Job.Graph)
		}
	}
}
