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
	return warm(t, p, m)
}

// warm schedules p on a new arena at the least II that takes it.
func warm(t testing.TB, p *Placement, m machine.Config) (*Placement, machine.Config, *Scratch, int) {
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

// eachNumbering runs an arena pin on warmAttempt's placement as generated
// — ScheduleLoopScratch schedules it on its presentation and carries the
// times back — and on its canonical presentation, which the pipeline's
// search hands the scheduler and which is scheduled as numbered.
func eachNumbering(t *testing.T, pin func(t *testing.T, p *Placement, m machine.Config, sc *Scratch, ii int)) {
	t.Run("as-generated", func(t *testing.T) {
		p, m, sc, ii := warmAttempt(t)
		pin(t, p, m, sc, ii)
	})
	t.Run("presented", func(t *testing.T) {
		p, m, _, _ := warmAttempt(t)
		p, m, sc, ii := warm(t, presentedPlacement(p), m)
		pin(t, p, m, sc, ii)
	})
}

// arenaIGraph builds in sc the instance graph ScheduleLoopScratch schedules
// p on: p's own when its loop is presented, else that of p carried onto the
// presentation the arena keeps.
func arenaIGraph(sc *Scratch, p *Placement, m machine.Config) (*IGraph, error) {
	if !p.G.Presented() {
		p = p.Present(&sc.present, &sc.presented)
	}
	return sc.buildIGraph(p, m, false)
}

// TestFailedAttemptSteadyStateAllocs pins the allocations of a failing
// attempt (the II search's common case while probing too-small intervals)
// at none: the instance graph, reservation table, ordering and liveness
// buffers and the *Error itself all come from the warm arena. The attempts
// alternate between two placements, so each one rebuilds the instance graph
// (an unchanged placement reuses it: TestReusedAttemptSteadyStateAllocs).
func TestFailedAttemptSteadyStateAllocs(t *testing.T) {
	eachNumbering(t, func(t *testing.T, p *Placement, m machine.Config, sc *Scratch, _ int) {
		q := p.Clone()
		q.Replicas[0] = q.Replicas[0].Add((q.Home[0] + 1) % q.K)
		failII := 1 // far below the feasible II: always fails
		for _, pl := range []*Placement{p, q} {
			if _, err := ScheduleLoopScratch(pl, m, failII, false, Options{}, sc); err == nil {
				t.Skip("II=1 unexpectedly feasible for the warmup loop")
			}
		}
		if _, err := arenaIGraph(sc, p, m); err != nil || sc.groupsOK {
			t.Fatalf("a build after another placement's attempt did not rebuild (err %v)", err)
		}
		avg := testing.AllocsPerRun(50, func() {
			p, q = q, p
			if _, err := ScheduleLoopScratch(p, m, failII, false, Options{}, sc); err == nil {
				t.Fatal("attempt unexpectedly succeeded")
			}
		})
		if avg != 0 {
			t.Errorf("failing attempt allocates %.1f objects in steady state, want 0", avg)
		}
	})
}

// TestAcceptedAttemptSteadyStateAllocs bounds the allocations of a
// successful attempt: only the accepted schedule is copied out of the
// arena, once (accept), and the instance graph it was found on stays for
// the next attempt.
func TestAcceptedAttemptSteadyStateAllocs(t *testing.T) {
	eachNumbering(t, func(t *testing.T, p *Placement, m machine.Config, sc *Scratch, ii int) {
		avg := testing.AllocsPerRun(50, func() {
			if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err != nil {
				t.Fatalf("attempt failed: %v", err)
			}
		})
		// The schedule with its graph header, one []int for Time and
		// MaxLive, instances, edges and one array for the six index
		// tables; the placement is the caller's and shared (an arena one
		// would add its Replicas: six). The pre-arena scheduler allocated
		// several hundred objects per accepted attempt.
		if avg > 5 {
			t.Errorf("accepted attempt allocates %.1f objects in steady state, want <= 5", avg)
		}
		if _, err := arenaIGraph(sc, p, m); err != nil || !sc.groupsOK {
			t.Errorf("an accepted attempt did not keep its instance graph for the next (err %v)", err)
		}
	})
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
		if _, err := ScheduleLoopScratch(p, m, ii, false, Options{}, NewScratch()); err != nil {
			b.Fatal(err)
		}
	}
}
