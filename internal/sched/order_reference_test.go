package sched

// priorityOrder's retired body, kept verbatim as its oracle (renamed
// referencePriorityOrder, nothing else touched): the ready set is a plain
// slice, scanned linearly for the most critical candidate at every pick.
// priorityOrder keeps it as a heap under the same total order, so the two
// must list the instances identically.

import (
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

func referencePriorityOrder(ig *IGraph, ii int, tm *ddg.Timing, sc *Scratch) []int32 {
	n := ig.NumInstances()
	if n == 0 {
		return nil
	}

	groupFlat, groupOff := buildGroups(ig, sc)
	order := sc.priOrder[:0]
	inOrder := zeroed(sc.inOrder, n)
	sc.inOrder = inOrder

	for gi := 0; gi+1 < len(groupOff); gi++ {
		group := groupFlat[groupOff[gi]:groupOff[gi+1]]
		inGroup := &sc.inGroup
		inGroup.Reset(n)
		remaining := 0
		for _, v := range group {
			if !inOrder[v] {
				inGroup.Set(v)
				remaining++
			}
		}
		if remaining == 0 {
			continue
		}
		// Candidate seeds: successors/predecessors of the current order.
		succSeeds := func() []int32 {
			r := sc.ready[:0]
			sc.seedMark.Reset(n)
			for _, v := range order {
				for _, eid := range ig.Out(v) {
					w := ig.Edges[eid].Dst
					if inGroup.Has(w) && !inOrder[w] && !sc.seedMark.Has(w) {
						sc.seedMark.Set(w)
						r = append(r, w)
					}
				}
			}
			return r
		}
		predSeeds := func() []int32 {
			r := sc.ready[:0]
			sc.seedMark.Reset(n)
			for _, v := range order {
				for _, eid := range ig.In(v) {
					w := ig.Edges[eid].Src
					if inGroup.Has(w) && !inOrder[w] && !sc.seedMark.Has(w) {
						sc.seedMark.Set(w)
						r = append(r, w)
					}
				}
			}
			return r
		}
		minASAPSeed := func() []int32 {
			var best int32 = -1
			for v := int32(0); v < int32(n); v++ {
				if inGroup.Has(v) && !inOrder[v] && (best < 0 || tm.ASAP[v] < tm.ASAP[best]) {
					best = v
				}
			}
			return append(sc.ready[:0], best)
		}

		const (
			topDown = iota
			bottomUp
		)
		var ready []int32
		dir := topDown
		if ready = succSeeds(); len(ready) == 0 {
			if ready = predSeeds(); len(ready) != 0 {
				dir = bottomUp
			} else {
				// Fresh component: start at its minimum-ASAP node, top-down.
				ready = minASAPSeed()
			}
		}

		for remaining > 0 {
			if len(ready) == 0 {
				// Switch direction; reseed from the order so far.
				if dir == topDown {
					dir = bottomUp
					ready = predSeeds()
				} else {
					dir = topDown
					ready = succSeeds()
				}
				if len(ready) == 0 {
					// Disconnected remainder of the group.
					dir = topDown
					ready = minASAPSeed()
				}
			}
			for len(ready) > 0 {
				// Pick the most critical candidate: top-down favors small
				// ALAP (high height), bottom-up favors large ASAP (high
				// depth). Deterministic tie-breaks.
				bi := 0
				for i := 1; i < len(ready); i++ {
					a, b := ready[i], ready[bi]
					var better bool
					if dir == topDown {
						if tm.ALAP[a] != tm.ALAP[b] {
							better = tm.ALAP[a] < tm.ALAP[b]
						} else if tm.ASAP[a] != tm.ASAP[b] {
							better = tm.ASAP[a] < tm.ASAP[b]
						} else {
							better = a < b
						}
					} else {
						if tm.ASAP[a] != tm.ASAP[b] {
							better = tm.ASAP[a] > tm.ASAP[b]
						} else if tm.ALAP[a] != tm.ALAP[b] {
							better = tm.ALAP[a] > tm.ALAP[b]
						} else {
							better = a < b
						}
					}
					if better {
						bi = i
					}
				}
				v := ready[bi]
				ready = append(ready[:bi], ready[bi+1:]...)
				if inOrder[v] {
					continue
				}
				order = append(order, v)
				inOrder[v] = true
				remaining--
				// Extend the frontier in the current direction.
				if dir == topDown {
					for _, eid := range ig.Out(v) {
						w := ig.Edges[eid].Dst
						if inGroup.Has(w) && !inOrder[w] {
							ready = append(ready, w)
						}
					}
				} else {
					for _, eid := range ig.In(v) {
						w := ig.Edges[eid].Src
						if inGroup.Has(w) && !inOrder[w] {
							ready = append(ready, w)
						}
					}
				}
			}
			sc.ready = ready[:0]
		}
	}
	sc.priOrder = order
	return order
}

// TestPriorityOrderMatchesReference holds priorityOrder to the linear
// ready scan on the instance graphs of the suite and of corpus loops, on a
// 2- and a 4-cluster machine, real and zero bus latency, at intervals from
// 1 to 24.
func TestPriorityOrderMatchesReference(t *testing.T) {
	var loops []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		loops = append(loops, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := range 500 {
		loops = append(loops, spec.Loop(i))
	}
	if testing.Short() || raceDetector {
		loops = loops[:60]
	}
	now, then := NewScratch(), NewScratch()
	orders := 0
	for _, m := range []machine.Config{machine.MustParse("2c1b2l64r"), machine.MustParse("4c2b2l64r")} {
		for _, g := range loops {
			p := NewPlacement(g, partition.InitialScratch(g, m, 4, partition.NewScratch()))
			for _, zeroBus := range []bool{false, true} {
				for _, ii := range []int{1, 2, 3, 5, 8, 13, 24} {
					ig, err := now.buildIGraph(p, m, zeroBus)
					if err != nil {
						t.Fatal(err)
					}
					refIG, err := then.buildIGraph(p, m, zeroBus)
					if err != nil {
						t.Fatal(err)
					}
					got := priorityOrder(ig, ii, computeIGTiming(ig, ii, now), now)
					want := referencePriorityOrder(refIG, ii, computeIGTiming(refIG, ii, then), then)
					if !slices.Equal(got, want) {
						t.Fatalf("%s on %s (zero bus %v) at II=%d:\n got  %v\n want %v", g.Name, m.Name, zeroBus, ii, got, want)
					}
					orders++
				}
			}
		}
	}
	t.Logf("%d orders", orders)
}
