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

// TestFailedAttemptSteadyStateAllocs bounds the allocations of a failing
// attempt (the II search's common case while probing too-small intervals):
// the instance graph, reservation table, ordering and liveness buffers all
// come from the warm arena, leaving only the error value itself.
func TestFailedAttemptSteadyStateAllocs(t *testing.T) {
	p, m, sc, ii := warmAttempt(t)
	failII := 1 // far below the feasible II: always fails
	if _, err := ScheduleLoopScratch(p, m, failII, false, Options{}, sc); err == nil {
		t.Skip("II=1 unexpectedly feasible for the warmup loop")
	}
	_ = ii
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ScheduleLoopScratch(p, m, failII, false, Options{}, sc); err == nil {
			t.Fatal("attempt unexpectedly succeeded")
		}
	})
	// One *sched.Error per attempt, plus leeway for map-growth noise. The
	// pre-arena scheduler allocated hundreds of objects per attempt.
	if avg > 6 {
		t.Errorf("failing attempt allocates %.1f objects in steady state, want <= 6", avg)
	}
}

// TestAcceptedAttemptSteadyStateAllocs bounds the allocations of a
// successful attempt: only the accepted schedule is copied out of the
// arena (detached instance graph + time/MaxLive vectors).
func TestAcceptedAttemptSteadyStateAllocs(t *testing.T) {
	p, m, sc, ii := warmAttempt(t)
	avg := testing.AllocsPerRun(50, func() {
		if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err != nil {
			t.Fatalf("attempt failed: %v", err)
		}
	})
	// The detached graph (header, instances, edges, one array for the six
	// index tables) + schedule and its two vectors = 7; generous leeway,
	// five tighter since detach stopped allocating a slice per table. The
	// pre-arena scheduler allocated several hundred objects per accepted
	// attempt.
	if avg > 35 {
		t.Errorf("accepted attempt allocates %.1f objects in steady state, want <= 35", avg)
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
