package driver

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
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
