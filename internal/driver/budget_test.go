package driver

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fill takes n slots of c's budget, as n running compilations would, and
// returns the function that gives them back.
func fill(c *Compiler, n int) (release func()) {
	for range n {
		c.budget <- struct{}{}
	}
	return func() {
		for range n {
			<-c.budget
		}
	}
}

// TestCompileWaitsForBudgetSlot: a real compilation over budget waits for a
// slot — it neither runs nor counts as in flight until one is free — and
// then compiles as usual.
func TestCompileWaitsForBudgetSlot(t *testing.T) {
	j := sampleJobs(t, "swim")[0]
	c := New(Config{Workers: 1})
	release := fill(c, cap(c.budget)-1)
	c.budget <- struct{}{} // the last slot

	done := make(chan error, 1)
	go func() {
		_, err := c.Compile(context.Background(), j)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("compilation over budget finished without a slot (err %v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	if running, _ := c.InFlightCompiles(); running != 0 {
		t.Fatalf("InFlightCompiles = %d while the only compilation waits for a slot", running)
	}

	<-c.budget // the last slot frees up
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("compilation did not take the freed slot")
	}
	if n, want := len(c.budget), cap(c.budget)-1; n != want {
		t.Fatalf("budget occupancy %d after the compilation, want the %d slots still held", n, want)
	}
	release()
	if st := c.CacheStats(); st.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", st.Misses)
	}
}

// TestCancelledBudgetWaitIsNoAnswer: a compilation whose context ends while
// it waits for a slot returns ctx.Err(), and that is nobody's answer — not
// cached, not booked as a miss, not saved — so the next caller compiles.
func TestCancelledBudgetWaitIsNoAnswer(t *testing.T) {
	j := sampleJobs(t, "swim")[0]
	store := newMemStore()
	c := New(Config{Workers: 1, Store: store})
	release := fill(c, cap(c.budget))

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := c.Compile(ctx, j); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("compile waiting for a slot returned %v, want context.DeadlineExceeded", err)
	}
	if st := c.CacheStats(); st.Misses != 0 || st.Hits != 0 || st.Entries != 0 {
		t.Fatalf("an aborted wait was booked or cached: %+v", st)
	}
	if store.saves != 0 {
		t.Fatalf("an aborted wait was saved to the store (%d saves)", store.saves)
	}

	release()
	if _, err := c.Compile(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("the compile after an aborted wait was not a fresh miss: %+v", st)
	}
	if n := len(c.budget); n != 0 {
		t.Fatalf("budget occupancy %d with nothing compiling", n)
	}
}

// TestLanesTakeOnlyFreeBudgetSlots: an extra speculative lane runs only on
// a free slot. With every slot but the compilation's own held, a
// speculative engine races no lane at all and still compiles the plain
// search's answer; with the budget free, the same jobs do race lanes.
func TestLanesTakeOnlyFreeBudgetSlots(t *testing.T) {
	jobs := sampleJobs(t, "mgrid")
	plain := New(Config{Workers: 1, CacheSize: -1})

	free := New(Config{Workers: 4, Speculation: 4, CacheSize: -1})
	full := New(Config{Workers: 4, Speculation: 4, CacheSize: -1})
	release := fill(full, cap(full.budget)-1)
	for i, j := range jobs {
		want, wantErr := plain.Compile(context.Background(), j)
		got, gotErr := full.Compile(context.Background(), j)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("job %d: plain err=%v, speculative err=%v", i, wantErr, gotErr)
		}
		if wantErr == nil && (got.II != want.II || got.Length != want.Length) {
			t.Fatalf("job %d: II %d length %d, plain search %d and %d", i, got.II, got.Length, want.II, want.Length)
		}
		if _, err := free.Compile(context.Background(), j); (err == nil) != (wantErr == nil) {
			t.Fatalf("job %d: speculative err=%v on a free budget", i, err)
		}
	}
	release()
	if raced, _, _ := full.LaneStats(); raced != 0 {
		t.Fatalf("%d lanes raced on a budget with no free slot", raced)
	}
	if raced, _, _ := free.LaneStats(); raced == 0 {
		t.Fatal("no lane raced on a free budget: the test shows nothing")
	}
	for _, c := range []*Compiler{free, full} {
		if n := len(c.budget); n != 0 {
			t.Fatalf("budget occupancy %d with nothing compiling", n)
		}
	}
}
