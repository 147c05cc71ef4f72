package sched

import (
	"math/rand"
	"testing"

	"clusched/internal/machine"
)

// The II search's steady state — one more schedule attempt on a warm
// arena — must allocate (almost) nothing: that is the whole point of
// Scratch. These tests pin the budget with testing.AllocsPerRun so an
// accidental per-attempt allocation regresses loudly.

func warmAttempt(t testing.TB) (*Placement, machine.Config, *Scratch, int) {
	rng := rand.New(rand.NewSource(42))
	m := machine.MustParse("4c2b2l64r")
	_, p := randomPlacedLoop(rng, m, 40)
	sc := NewScratch()
	ii := 1
	for ; ii < 64; ii++ {
		if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err == nil {
			break
		}
	}
	if ii == 64 {
		t.Fatal("warmup loop never scheduled")
	}
	return p, m, sc, ii
}

// TestFailedAttemptSteadyStateAllocs pins the allocations of a failing
// attempt (the II search's common case while probing too-small intervals)
// at none: the instance graph, reservation table, ordering and liveness
// buffers and the *Error itself all come from the warm arena.
func TestFailedAttemptSteadyStateAllocs(t *testing.T) {
	p, m, sc, _ := warmAttempt(t)
	failII := 1 // far below the feasible II: always fails
	if _, err := ScheduleLoopScratch(p, m, failII, false, Options{}, sc); err == nil {
		t.Skip("II=1 unexpectedly feasible for the warmup loop")
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ScheduleLoopScratch(p, m, failII, false, Options{}, sc); err == nil {
			t.Fatal("attempt unexpectedly succeeded")
		}
	})
	if avg != 0 {
		t.Errorf("failing attempt allocates %.1f objects in steady state, want 0", avg)
	}
}

// TestAcceptedAttemptSteadyStateAllocs bounds the allocations of a
// successful attempt: only the accepted schedule is copied out of the
// arena, once (accept).
func TestAcceptedAttemptSteadyStateAllocs(t *testing.T) {
	p, m, sc, ii := warmAttempt(t)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err != nil {
			t.Fatalf("attempt failed: %v", err)
		}
	})
	// The schedule with its graph header, one []int for Time and MaxLive,
	// instances, edges and one array for the six index tables; the
	// placement is NewPlacement's and shared (an arena one would add its
	// Replicas: six). The pre-arena scheduler allocated several hundred
	// objects per accepted attempt.
	if avg > 5 {
		t.Errorf("accepted attempt allocates %.1f objects in steady state, want <= 5", avg)
	}
}

// BenchmarkScheduleAttemptScratch measures one warm-arena schedule attempt
// (build instance graph + order + place + liveness); allocs/op is the
// headline number of the allocation-free core.
func BenchmarkScheduleAttemptScratch(b *testing.B) {
	p, m, sc, ii := warmAttempt(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleAttemptCold is the no-arena reference: every attempt
// pays the full allocation cost, as the scheduler did before the arena.
func BenchmarkScheduleAttemptCold(b *testing.B) {
	p, m, _, ii := warmAttempt(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScheduleLoop(p, m, ii, false, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
