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
