package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

// referenceProve is what both callers of Prove did before it existed.
func referenceProve(p *Placement, m machine.Config, zeroBusLat bool, ii int, times []int, opts Options) (*Schedule, error) {
	ig, err := referenceBuildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	return referenceAdopt(ig, ii, times, opts)
}

// given hands Prove a time vector the caller already holds.
func given(times []int) func(*IGraph, []int) ([]int, error) {
	return func(*IGraph, []int) ([]int, error) { return times, nil }
}

// placed hands Prove a placement the caller already holds.
func placed(p *Placement) func([]int, []ClusterSet) error {
	return func(home []int, replicas []ClusterSet) error {
		copy(home, p.Home)
		copy(replicas, p.Replicas)
		return nil
	}
}

// sameSchedule compares everything a Schedule and its detached instance
// graph hold.
func sameSchedule(a, b *Schedule) error {
	if a.II != b.II || a.Length != b.Length || a.SC != b.SC ||
		!reflect.DeepEqual(a.Time, b.Time) || !reflect.DeepEqual(a.MaxLive, b.MaxLive) {
		return fmt.Errorf("schedules differ: II %d/%d length %d/%d SC %d/%d\n times   %v\n         %v\n maxlive %v / %v",
			a.II, b.II, a.Length, b.Length, a.SC, b.SC, a.Time, b.Time, a.MaxLive, b.MaxLive)
	}
	x, y := a.IG, b.IG
	if x.scratch || y.scratch {
		return fmt.Errorf("a returned graph still aliases its arena")
	}
	if x.G != y.G || x.commLat != y.commLat || x.busSlots != y.busSlots {
		return fmt.Errorf("instance graphs differ in their scalars")
	}
	// A proven schedule carries its own copy of the placement it was handed.
	if x.P.scratch || y.P.scratch {
		return fmt.Errorf("a returned placement still aliases its arena")
	}
	if x.P.G != y.P.G || x.P.K != y.P.K || !reflect.DeepEqual(x.P.Home, y.P.Home) || !reflect.DeepEqual(x.P.Replicas, y.P.Replicas) {
		return fmt.Errorf("placements differ:\n %+v\n %+v", x.P, y.P)
	}
	for _, f := range []struct {
		name string
		a, b any
	}{
		{"Inst", x.Inst, y.Inst}, {"Edges", x.Edges, y.Edges}, {"CopyIdx", x.CopyIdx, y.CopyIdx},
		{"instIdx", x.instIdx, y.instIdx}, {"outOff", x.outOff, y.outOff}, {"inOff", x.inOff, y.inOff},
		{"outIdx", x.outIdx, y.outIdx}, {"inIdx", x.inIdx, y.inIdx},
	} {
		if !reflect.DeepEqual(f.a, f.b) {
			return fmt.Errorf("instance graphs differ in %s:\n %v\n %v", f.name, f.a, f.b)
		}
	}
	return nil
}

// diffProve runs Prove and the reference on one input and compares
// schedule or error text.
func diffProve(p *Placement, m machine.Config, zero bool, ii int, times []int, opts Options) error {
	got, gerr := Prove(p.G, m, zero, ii, opts, placed(p), given(times))
	want, werr := referenceProve(p, m, zero, ii, times, opts)
	switch {
	case (gerr == nil) != (werr == nil):
		return fmt.Errorf("Prove error %v, reference %v", gerr, werr)
	case gerr != nil:
		if gerr.Error() != werr.Error() {
			return fmt.Errorf("Prove error %q, reference %q", gerr, werr)
		}
		return nil
	}
	return sameSchedule(got, want)
}

// scheduledSuite yields a placed, scheduled suite loop per call of visit:
// every stride-th loop on each Table-1 machine plus the unified one.
func scheduledSuite(t *testing.T, stride int, visit func(p *Placement, m machine.Config, s *Schedule)) {
	t.Helper()
	loops := workload.SPECfp95()
	sc := NewScratch()
	for _, m := range append(machine.PaperConfigs(), machine.Unified(64)) {
		for i := 0; i < len(loops); i += stride {
			g := loops[i].Graph
			for ii := 1; ii < 4096; ii++ {
				p := NewPlacement(g, partition.Initial(g, m, ii))
				if s, err := ScheduleLoopScratch(p, m, ii, false, Options{}, sc); err == nil {
					visit(p, m, s)
					break
				}
			}
		}
	}
}

// TestProveMatchesBuildAndAdopt: on honest schedules of the suite Prove
// returns what BuildIGraph + Adopt returned — schedule, register pressure,
// detached graph — and the public Adopt and Verify, which share its
// internals, agree with their retired selves.
func TestProveMatchesBuildAndAdopt(t *testing.T) {
	stride := 1
	if testing.Short() || raceDetector {
		stride = 16
	}
	n := 0
	scheduledSuite(t, stride, func(p *Placement, m machine.Config, s *Schedule) {
		n++
		if err := diffProve(p, m, false, s.II, s.Time, Options{}); err != nil {
			t.Fatalf("%s on %s: %v", p.G.Name, m.Name, err)
		}
		if err := sameSchedule(s, mustProve(t, p, m, s)); err != nil {
			t.Fatalf("%s on %s: the scheduler's own schedule does not prove to itself: %v", p.G.Name, m.Name, err)
		}
		adopted, err := Adopt(s.IG, s.II, s.Time, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSchedule(adopted, s); err != nil {
			t.Fatalf("%s on %s: Adopt: %v", p.G.Name, m.Name, err)
		}
		if (Verify(s) == nil) != (referenceVerify(s) == nil) {
			t.Fatalf("%s on %s: Verify disagrees with its reference", p.G.Name, m.Name)
		}
	})
	if n == 0 {
		t.Fatal("no suite loop scheduled")
	}
}

func mustProve(t *testing.T, p *Placement, m machine.Config, s *Schedule) *Schedule {
	t.Helper()
	got, err := Prove(p.G, m, false, s.II, Options{}, placed(p), given(s.Time))
	if err != nil {
		t.Fatalf("%s on %s: an honest schedule does not prove: %v", p.G.Name, m.Name, err)
	}
	return got
}

// TestProveMatchesReferenceOnCorruptedTimes: every way a foreign time
// vector can be wrong is refused with the reference's words — and the
// arena a refusal leaves behind proves the next schedule correctly.
func TestProveMatchesReferenceOnCorruptedTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	refused := 0
	scheduledSuite(t, 24, func(p *Placement, m machine.Config, s *Schedule) {
		corrupt := func(f func(times []int) ([]int, int)) {
			times, ii := f(append([]int(nil), s.Time...))
			for _, opts := range []Options{{}, {SkipRegisterCheck: true}} {
				if err := diffProve(p, m, false, ii, times, opts); err != nil {
					t.Fatalf("%s on %s: %v", p.G.Name, m.Name, err)
				}
			}
			if _, err := Prove(p.G, m, false, ii, Options{}, placed(p), given(times)); err != nil {
				refused++
			}
			// The pooled arena saw a failure: the honest schedule must
			// still prove, bit for bit.
			if err := sameSchedule(s, mustProve(t, p, m, s)); err != nil {
				t.Fatalf("%s on %s: after a refused proof: %v", p.G.Name, m.Name, err)
			}
		}
		n := len(s.Time)
		corrupt(func(ts []int) ([]int, int) { ts[rng.Intn(n)] += 1 + rng.Intn(5); return ts, s.II })
		corrupt(func(ts []int) ([]int, int) { ts[rng.Intn(n)] -= 1 + rng.Intn(5); return ts, s.II })
		corrupt(func(ts []int) ([]int, int) { ts[rng.Intn(n)] = -1; return ts, s.II })
		corrupt(func(ts []int) ([]int, int) { ts[rng.Intn(n)] = 1 << 40; return ts, s.II })
		corrupt(func(ts []int) ([]int, int) {
			i, j := rng.Intn(n), rng.Intn(n)
			ts[i], ts[j] = ts[j], ts[i]
			return ts, s.II
		})
		corrupt(func(ts []int) ([]int, int) { clear(ts); return ts, s.II })
		corrupt(func(ts []int) ([]int, int) { return ts[:n-1], s.II })
		corrupt(func(ts []int) ([]int, int) { return append(ts, 0), s.II })
		corrupt(func(ts []int) ([]int, int) { return nil, s.II })
		corrupt(func(ts []int) ([]int, int) { return ts, max(1, s.II-1) })
		corrupt(func(ts []int) ([]int, int) { return ts, s.II + 1 + rng.Intn(3) })
		corrupt(func(ts []int) ([]int, int) {
			for i := range ts {
				ts[i] += s.II // a whole-stage shift keeps every constraint
			}
			return ts, s.II
		})
	})
	if refused == 0 {
		t.Fatal("no corruption was refused; the test proves nothing")
	}
}

// TestProveRefusesNonPositiveII: the retired Adopt divided by the II before
// looking at it (callers had to guard); the one door guards itself.
func TestProveRefusesNonPositiveII(t *testing.T) {
	p, m, _, ii := warmAttempt(t)
	s, err := ScheduleLoop(p, m, ii, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []int{0, -1, -1 << 62} {
		_, err := Prove(p.G, m, false, bad, Options{}, placed(p), given(s.Time))
		se, ok := err.(*Error)
		if !ok || se.Kind != FailWindow || se.Detail != fmt.Sprintf("sched: verify: non-positive II %d", bad) {
			t.Errorf("II=%d: want a window *Error quoting verify, got %T: %v", bad, err, err)
		}
		if _, err := Adopt(s.IG, bad, s.Time, Options{}); err == nil {
			t.Errorf("Adopt accepted II=%d", bad)
		}
	}
}

// TestProvePassesTheCallersErrorThrough: what either callback refuses comes
// back as it is, the placement it is offered has a slot per node — and one
// left unfilled is a node without instances, not the last proof's — and the
// time buffer has a slot per instance of the graph it is shown.
func TestProvePassesTheCallersErrorThrough(t *testing.T) {
	p, m, _, ii := warmAttempt(t)
	s, err := ScheduleLoop(p, m, ii, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mine := fmt.Errorf("no layout")
	if _, err := Prove(p.G, m, false, ii, Options{}, func(home []int, replicas []ClusterSet) error {
		if len(home) != p.G.NumNodes() || len(replicas) != p.G.NumNodes() {
			t.Errorf("callback offered %d/%d slots for %d nodes", len(home), len(replicas), p.G.NumNodes())
		}
		return mine
	}, given(s.Time)); err != mine {
		t.Fatalf("placement callback error came back as %v", err)
	}
	mustProve(t, p, m, s) // leaves p in the pooled arena's slot
	_, err = Prove(p.G, m, false, ii, Options{}, func([]int, []ClusterSet) error { return nil }, given(s.Time))
	if err == nil || err.Error() != "sched: node 0 has no instances" {
		t.Fatalf("an unfilled placement: %v", err)
	}
	if _, err := Prove(p.G, m, false, ii, Options{}, placed(p), func(*IGraph, []int) ([]int, error) { return nil, mine }); err != mine {
		t.Fatalf("callback error came back as %v", err)
	}
	got, err := Prove(p.G, m, false, ii, Options{}, placed(p), func(ig *IGraph, buf []int) ([]int, error) {
		if len(buf) != ig.NumInstances() || !ig.scratch {
			t.Errorf("callback offered %d slots for %d instances (scratch graph: %v)", len(buf), ig.NumInstances(), ig.scratch)
		}
		copy(buf, s.Time)
		return buf, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSchedule(got, s); err != nil {
		t.Fatal(err)
	}
}

// TestProveConcurrently shares the arena pool between goroutines proving
// different loops; run under -race.
func TestProveConcurrently(t *testing.T) {
	type proven struct {
		p *Placement
		m machine.Config
		s *Schedule
	}
	var work []proven
	scheduledSuite(t, 48, func(p *Placement, m machine.Config, s *Schedule) { work = append(work, proven{p, m, s}) })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := g; i < len(work); i += 2 {
					w := work[i]
					got, err := Prove(w.p.G, w.m, false, w.s.II, Options{}, placed(w.p), given(w.s.Time))
					if err != nil {
						t.Errorf("%s on %s: %v", w.p.G.Name, w.m.Name, err)
						return
					}
					if err := sameSchedule(got, w.s); err != nil {
						t.Errorf("%s on %s: %v", w.p.G.Name, w.m.Name, err)
						return
					}
					if _, err := Prove(w.p.G, w.m, false, w.s.II+1, Options{}, placed(w.p), given(w.s.Time[:1])); err == nil {
						t.Errorf("a truncated vector proved")
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProveSteadyStateAllocs pins what a proof costs once the pool is warm:
// the one copy out of the arena — the schedule with its graph and placement
// headers, one []int for its two vectors and the homes, instances, edges,
// one backing array for the six index tables, the replica sets — and,
// refused, the *Error alone.
func TestProveSteadyStateAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	p, m, _, ii := warmAttempt(t)
	s, err := ScheduleLoop(p, m, ii, false, Options{})
	if err != nil {
		t.Fatal(err)
	}
	place, times := placed(p), given(s.Time)
	prove := func() {
		if _, err := Prove(p.G, m, false, ii, Options{}, place, times); err != nil {
			t.Fatal(err)
		}
	}
	prove()
	if avg := testing.AllocsPerRun(100, prove); avg != 6 {
		t.Errorf("a warm Prove allocates %.1f objects, want 6", avg)
	}
	refuse := func() {
		if _, err := Prove(p.G, m, false, ii, Options{}, place, given(s.Time[:1])); err == nil {
			t.Fatal("truncated vector proved")
		}
	}
	if avg := testing.AllocsPerRun(100, refuse); avg > 1 {
		t.Errorf("a refused Prove allocates %.1f objects, want <= 1 (nothing is copied out)", avg)
	}
}
