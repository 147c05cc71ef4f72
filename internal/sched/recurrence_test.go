package sched

import (
	"math/rand"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
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

// TestBelowRecurrenceIsExact holds belowRecurrence to admits on the
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
					if got := belowRecurrence(ig, ii, sc); got != want[ii] {
						t.Fatalf("%s on %s (zero bus %v), asked %s: belowRecurrence(II=%d) = %v, want %v", g.Name, m.Name, zeroBus, how, ii, got, want[ii])
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
