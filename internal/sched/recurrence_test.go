package sched

import (
	"math/rand"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

// admits reports whether some times meet every edge of ig between two
// distinct instances at ii: whether the edges, weighted Lat − ii·Dist,
// close no positive cycle (Bellman–Ford over the whole graph).
func admits(ig *IGraph, ii int) bool {
	n := ig.NumInstances()
	d := make([]int64, n)
	for pass := 0; pass <= n; pass++ {
		changed := false
		for _, e := range ig.Edges {
			if e.Src == e.Dst {
				continue
			}
			if t := d[e.Src] + int64(e.Lat) - int64(ii)*int64(e.Dist); t > d[e.Dst] {
				d[e.Dst], changed = t, true
			}
		}
		if !changed {
			return true
		}
	}
	return false
}

// TestBelowRecurrenceIsExact holds belowRecurrence, and the bound it
// names below it, to admits on the
// instance graphs of the suite and of corpus loops, on 2- and 4-cluster
// machines, real and zero bus latency, at every interval up to past the
// bound: asked up the ladder and down it on arenas that keep what they
// learnt, in a random order, and each time on a fresh arena.
func TestBelowRecurrenceIsExact(t *testing.T) {
	var loops []*ddg.Graph
	for i, l := range workload.SPECfp95() {
		if i%3 == 0 {
			loops = append(loops, l.Graph)
		}
	}
	spec := corpus.DefaultSpec()
	for i := range 300 {
		loops = append(loops, spec.Loop(i))
	}
	rng := rand.New(rand.NewSource(49))
	refused := 0
	for _, m := range []machine.Config{machine.MustParse("2c1b2l64r"), machine.MustParse("4c2b4l64r")} {
		for _, g := range loops {
			for _, zeroBus := range []bool{false, true} {
				p := NewPlacement(g, partition.InitialScratch(g, m, 4, partition.NewScratch()))
				up, down, shuffled := NewScratch(), NewScratch(), NewScratch()
				ig, err := up.buildIGraph(p, m, zeroBus)
				if err != nil {
					t.Fatal(err)
				}
				top := 1
				for !admits(ig, top) {
					top++
				}
				want := make([]bool, top+3)
				for ii := 1; ii < len(want); ii++ {
					want[ii] = !admits(ig, ii)
					if want[ii] {
						refused++
					}
				}
				check := func(how string, sc *Scratch, ii int) {
					t.Helper()
					ig, err := sc.buildIGraph(p, m, zeroBus)
					if err != nil {
						t.Fatal(err)
					}
					bound, got := belowRecurrence(ig, ii, sc)
					if got != want[ii] || got && bound != top {
						t.Fatalf("%s on %s (zero bus %v), asked %s: belowRecurrence(II=%d) = %d, %v, want %d, %v", g.Name, m.Name, zeroBus, how, ii, bound, got, top, want[ii])
					}
				}
				for ii := 1; ii < len(want); ii++ {
					check("up the ladder", up, ii)
					check("down the ladder", down, len(want)-ii)
					check("fresh", NewScratch(), ii)
				}
				for _, ii := range rng.Perm(len(want) - 1) {
					check("in a random order", shuffled, ii+1)
				}
			}
		}
	}
	if refused == 0 {
		t.Error("no interval below a recurrence bound was asked")
	}
	t.Logf("%d intervals below the bound", refused)
}

// TestRunRefusesBelowTheRecurrenceBound: a two-node recurrence split over
// two clusters, whose copies lift its instance graph's recurrence bound
// above the loop's MII. Below the bound run fails with the bound, a window
// failure, and once the arena knows the bound it refuses without placing
// an instance; at the bound and above it schedules as the retired attempt
// does.
func TestRunRefusesBelowTheRecurrenceBound(t *testing.T) {
	b := ddg.NewBuilder("split")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	b.Edge(v, u, 1)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	sc := NewScratch()
	ig, err := sc.buildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1
	for !admits(ig, bound) {
		bound++
	}
	lo := mii.MII(g, m)
	if bound <= lo {
		t.Fatalf("recurrence bound %d, want above the MII %d", bound, lo)
	}
	refused := func(ii int, placing bool) {
		t.Helper()
		const sentinel = -7
		sc.time = grown(sc.time, ig.NumInstances())
		for i := range sc.time {
			sc.time[i] = sentinel
		}
		_, _, err := run(ig, ii, Options{}, sc)
		want := Error{Kind: FailWindow, Inst: -1, II: ii, Bound: bound}
		if e, ok := err.(*Error); !ok || *e != want {
			t.Fatalf("II=%d: error %v, want %+v", ii, err, want)
		}
		if untouched := slices.IndexFunc(sc.time, func(x int) bool { return x != sentinel }) < 0; untouched == placing {
			t.Fatalf("II=%d: placed instances %v, want %v", ii, !untouched, placing)
		}
		if _, _, err := referenceRun(ig, ii, Options{}, NewScratch()); err == nil {
			t.Fatalf("II=%d: the retired attempt schedules below the bound", ii)
		}
	}
	refused(bound-1, true) // the priority order fails, and the walk finds the bound
	for ii := lo; ii < bound; ii++ {
		refused(ii, false)
	}
	for ii := bound; ii < bound+3; ii++ {
		length, live, err := run(ig, ii, Options{}, sc)
		ref := NewScratch()
		refLength, refLive, refErr := referenceRun(ig, ii, Options{}, ref)
		if err != nil || refErr != nil || length != refLength || !slices.Equal(live, refLive) || !slices.Equal(sc.time, ref.time) {
			t.Fatalf("II=%d: %d %v %v %v, want %d %v %v %v", ii, length, live, sc.time, err, refLength, refLive, ref.time, refErr)
		}
	}
}
