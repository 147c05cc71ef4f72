package sched

import (
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

// This file keeps the instance graph's retired order and timing verbatim
// (identifiers suffixed Reference; the arena fields they used gathered into
// igScratchReference, nothing else touched) as the oracle of igTopo and
// computeIGTiming, which are now the arena's cached calls into ddg.Order
// and ddg.Times. The two must agree exactly, on every graph.

type igTimingReference struct {
	asap, alap []int
	length     int
}

type igScratchReference struct {
	ig       IGraph
	timing   igTimingReference
	asap     []int
	alap     []int
	indeg    []int32
	topoBuf  []int32
	topoSeen []bool
	topoOK   bool
}

func computeIGTimingReference(ig *IGraph, ii int, sc *igScratchReference) *igTimingReference {
	n := ig.NumInstances()
	t := &sc.timing
	sc.asap = zeroed(sc.asap, n)
	sc.alap = zeroed(sc.alap, n)
	*t = igTimingReference{asap: sc.asap, alap: sc.alap}
	order := igTopoReference(ig, sc)
	relax := func() bool {
		changed := false
		for _, v := range order {
			for _, eid := range ig.Out(v) {
				e := &ig.Edges[eid]
				eff := int(e.OrderLat) - int(e.Dist)*ii
				if e.Dist != 0 && eff <= 0 {
					continue
				}
				if tt := t.asap[e.Src] + eff; tt > t.asap[e.Dst] {
					t.asap[e.Dst] = tt
					changed = true
				}
			}
		}
		return changed
	}
	for pass := 0; pass < 4; pass++ {
		if !relax() {
			break
		}
	}
	for i := range ig.Inst {
		if l := t.asap[i] + ig.Latency(int32(i)); l > t.length {
			t.length = l
		}
	}
	for i := range ig.Inst {
		t.alap[i] = t.length - ig.Latency(int32(i))
	}
	for k := len(order) - 1; k >= 0; k-- {
		v := order[k]
		for _, eid := range ig.Out(v) {
			e := &ig.Edges[eid]
			if e.Dist != 0 {
				continue
			}
			if tt := t.alap[e.Dst] - int(e.OrderLat); tt < t.alap[e.Src] {
				t.alap[e.Src] = tt
			}
		}
	}
	return t
}

func igTopoReference(ig *IGraph, sc *igScratchReference) []int32 {
	if sc.topoOK && ig == &sc.ig {
		return sc.topoBuf
	}
	sc.topoOK = ig == &sc.ig
	n := ig.NumInstances()
	indeg := zeroed(sc.indeg, n)
	sc.indeg = indeg
	for i := range ig.Edges {
		if ig.Edges[i].Dist == 0 {
			indeg[ig.Edges[i].Dst]++
		}
	}
	order := sc.topoBuf[:0]
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, eid := range ig.Out(v) {
			e := &ig.Edges[eid]
			if e.Dist != 0 {
				continue
			}
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				order = append(order, e.Dst)
			}
		}
	}
	if len(order) < n {
		seen := zeroed(sc.topoSeen, n)
		sc.topoSeen = seen
		for _, v := range order {
			seen[v] = true
		}
		for v := 0; v < n; v++ {
			if !seen[v] {
				order = append(order, int32(v))
			}
		}
	}
	sc.topoBuf = order
	return order
}

// requireIGTimingMatches diffs the arena's order and timing of ig at ii
// against the retired bodies on a fresh scratch.
func requireIGTimingMatches(t *testing.T, label string, ig *IGraph, ii int, sc *Scratch) {
	t.Helper()
	ref := &igScratchReference{}
	_, got := igTopo(ig, sc)
	if want := igTopoReference(ig, ref); !slices.Equal(got, want) {
		t.Fatalf("%s: order %v, retired %v", label, got, want)
	}
	tm, want := computeIGTiming(ig, ii, sc), computeIGTimingReference(ig, ii, ref)
	if tm.Length != want.length || !slices.Equal(tm.ASAP, want.asap) || !slices.Equal(tm.ALAP, want.alap) {
		t.Fatalf("%s at II=%d: timing %v %v %d, retired %v %v %d", label, ii, tm.ASAP, tm.ALAP, tm.Length, want.asap, want.alap, want.length)
	}
}

// TestIGTimingMatchesReference runs the II search's attempts on the suite
// and a corpus sample, on every Table 1 machine and the unified one, real
// and zero-bus — a partition refined from one interval to the next, and
// uas's sweep — and holds every attempt's instance graph, on the arena the
// attempts share, to the retired order and timing.
func TestIGTimingMatchesReference(t *testing.T) {
	stride := 1
	if testing.Short() || raceDetector {
		stride = 9
	}
	var loops []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		loops = append(loops, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := range 100 {
		loops = append(loops, spec.Loop(i))
	}
	sc, psc, msc := NewScratch(), partition.NewScratch(), mii.NewScratch()
	attempts := 0
	for _, m := range append(machine.PaperConfigs(), machine.Unified(64)) {
		for i := 0; i < len(loops); i += stride {
			g := loops[i]
			for _, zeroBus := range []bool{false, true} {
				for _, uas := range []bool{false, true} {
					var a *partition.Assignment
					lo := mii.MIIScratch(g, m, msc)
					for ii := lo; ii < lo+64; ii++ {
						switch {
						case uas:
							var ok bool
							if a, ok = UASAssignScratch(g, m, ii, sc); !ok {
								continue
							}
						case a == nil:
							a = partition.InitialScratch(g, m, ii, psc)
						default:
							a = partition.RefineScratch(g, m, ii, a, psc)
						}
						p := sc.Placement(g, a)
						ig, err := sc.buildIGraph(p, m, zeroBus)
						if err != nil {
							t.Fatal(err)
						}
						attempts++
						requireIGTimingMatches(t, g.Name+" on "+m.Name, ig, ii, sc)
						if _, err := ScheduleLoopScratch(p, m, ii, zeroBus, Options{}, sc); err == nil {
							break
						}
					}
				}
			}
		}
	}
	t.Logf("%d attempts", attempts)
}
