package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

// referenceUASOrder is the UAS sweep's placement order as it was sorted
// before uasOrder packed its keys, kept verbatim as uasOrder's oracle.
func referenceUASOrder(tm *ddg.Timing) []int32 {
	order := make([]int32, len(tm.ASAP))
	for v := range order {
		order[v] = int32(v)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		if c := cmp.Compare(tm.ALAP[a], tm.ALAP[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(tm.ASAP[a], tm.ASAP[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// hostileLatencyLoop is a fan of n loads feeding one add through edges of
// the given latencies (cycled), a loop-carried edge back to the first load,
// and a store: ALAP and ASAP times around and beyond what uasOrder packs,
// with ties among the loads.
func hostileLatencyLoop(n int, lats ...int) *ddg.Graph {
	b := ddg.NewBuilder(fmt.Sprintf("hostile%v", lats))
	sum := b.Node("sum", ddg.OpIAdd)
	for i := 0; i < n; i++ {
		ld := b.Node("", ddg.OpLoad)
		b.EdgeLat(ld, sum, 0, lats[i%len(lats)])
		if i == 0 {
			b.EdgeLat(sum, ld, 2, lats[len(lats)-1])
		}
	}
	b.Edge(sum, b.Node("st", ddg.OpStore), 0)
	return b.MustBuild()
}

// TestUASOrderMatchesReference holds uasOrder to the retired comparator sort
// at a ladder of intervals over the suite, 2 000 corpus loops and a table of
// hostile latencies, where times at and past the packed field's range must
// take the comparator path and still agree.
func TestUASOrderMatchesReference(t *testing.T) {
	var graphs []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		graphs = append(graphs, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := 0; i < 2000; i++ {
		graphs = append(graphs, spec.Loop(i))
	}
	const limit = 1 << uasTimeBits
	hostile := [][]int{
		{limit - 8}, {limit - 8, 1, 3}, {limit}, {limit + 1, 0}, {1 << 40, 1, 1 << 40}, {0, 0, 7},
	}
	for _, lats := range hostile {
		graphs = append(graphs, hostileLatencyLoop(9, lats...))
	}
	sc := NewScratch()
	var ts ddg.TimingScratch
	packed, refused := 0, 0
	for _, g := range graphs {
		for _, ii := range []int{1, 2, 5, 16} {
			tm := g.ComputeTimingScratch(ii, &ts)
			if got, want := uasOrder(tm, sc), referenceUASOrder(tm); !slices.Equal(got, want) {
				t.Fatalf("%s at II=%d: order\n got  %v\n want %v", g.Name, ii, got, want)
			}
			if min(slices.Min(tm.ALAP), slices.Min(tm.ASAP)) >= 0 && max(slices.Max(tm.ALAP), slices.Max(tm.ASAP)) < limit {
				packed++
			} else {
				refused++
			}
		}
	}
	if packed == 0 || refused == 0 {
		t.Errorf("%d orders took the packed path and %d the comparator: both must run", packed, refused)
	}
}

// referenceUASAssignScratch is UASAssignScratch's retired body, kept
// verbatim as its oracle (renamed, nothing else touched): every cluster
// re-reads the node's placed neighbours for its dependence window and its
// communication count, and scans its window one cycle at a time through
// canPlace.
func referenceUASAssignScratch(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) (*partition.Assignment, bool) {
	n := g.NumNodes()
	if !m.Clustered() {
		sc.uasCluster = zeroed(sc.uasCluster, n)
		sc.uasAssign = partition.Assignment{Cluster: sc.uasCluster, K: 1}
		return &sc.uasAssign, true
	}
	if ii <= 0 {
		return nil, false
	}
	const inf = int(^uint(0) >> 1)
	K := m.Clusters
	tm := g.ComputeTimingScratch(ii, &sc.timing)
	order := uasOrder(tm, sc)

	rt := &sc.rt
	rt.reset(m, K, ii)
	time := zeroed(sc.uasTime, n)
	sc.uasTime = time
	cluster := zeroed(sc.uasCluster, n)
	sc.uasCluster = cluster
	placed := zeroed(sc.uasPlaced, n)
	sc.uasPlaced = placed
	comm := zeroed(sc.uasComm, n)
	sc.uasComm = comm
	load := zeroed(sc.uasLoad, K)
	sc.uasLoad = load

	busBudget := m.BusComs(ii)
	comms := 0

	for _, vv := range order {
		v := int(vv)
		op := g.Nodes[v].Op
		cl := op.Class()
		bestC, bestT, bestComms := -1, 0, 0
		for c := 0; c < K; c++ {
			if m.FUAt(c, cl) == 0 {
				continue
			}
			// Dependence window against already-placed neighbors; a data
			// edge that would cross clusters pays the bus latency.
			estart, lstart := -inf, inf
			hasPred, hasSucc := false, false
			for _, eid := range g.In(v) {
				e := &g.Edges[eid]
				if e.Src == v || !placed[e.Src] {
					continue
				}
				lat := e.Lat
				if e.Kind == ddg.EdgeData && cluster[e.Src] != c {
					lat += m.BusLatency
				}
				hasPred = true
				if t := time[e.Src] + lat - ii*e.Dist; t > estart {
					estart = t
				}
			}
			for _, eid := range g.Out(v) {
				e := &g.Edges[eid]
				if e.Dst == v || !placed[e.Dst] {
					continue
				}
				lat := e.Lat
				if e.Kind == ddg.EdgeData && cluster[e.Dst] != c {
					lat += m.BusLatency
				}
				hasSucc = true
				if t := time[e.Dst] - lat + ii*e.Dist; t < lstart {
					lstart = t
				}
			}
			inst := Instance{Orig: int32(v), Cluster: int16(c)}
			found := false
			foundAt := 0
			switch {
			case hasPred && hasSucc:
				if estart > lstart {
					continue // window closed in this cluster
				}
				end := lstart
				if e2 := estart + ii - 1; e2 < end {
					end = e2
				}
				for t := estart; t <= end; t++ {
					if rt.canPlace(inst, op, t) {
						found, foundAt = true, t
						break
					}
				}
			case hasSucc:
				for t := lstart; t > lstart-ii; t-- {
					if rt.canPlace(inst, op, t) {
						found, foundAt = true, t
						break
					}
				}
			default:
				if !hasPred {
					estart = tm.ASAP[v]
				}
				for t := estart; t < estart+ii; t++ {
					if rt.canPlace(inst, op, t) {
						found, foundAt = true, t
						break
					}
				}
			}
			if !found {
				continue
			}
			// Communications this choice adds: producers placed elsewhere
			// whose value is not yet on a bus, plus v itself if a placed
			// consumer sits in another cluster. Buses broadcast, so each
			// value is charged once (the marks dedupe multi-edges).
			delta := 0
			sc.uasMark.Reset(n)
			for _, eid := range g.In(v) {
				e := &g.Edges[eid]
				u := e.Src
				if u == v || !placed[u] || e.Kind != ddg.EdgeData {
					continue
				}
				if cluster[u] != c && !comm[u] && !g.Nodes[u].Op.IsStore() && !sc.uasMark.Has(int32(u)) {
					sc.uasMark.Set(int32(u))
					delta++
				}
			}
			if !op.IsStore() {
				for _, eid := range g.Out(v) {
					e := &g.Edges[eid]
					if e.Dst != v && placed[e.Dst] && e.Kind == ddg.EdgeData && cluster[e.Dst] != c {
						delta++
						break
					}
				}
			}
			if comms+delta > busBudget {
				continue // this cluster would overrun the bus budget
			}
			better := bestC < 0 ||
				delta < bestComms ||
				(delta == bestComms && foundAt < bestT) ||
				(delta == bestComms && foundAt == bestT && load[c] < load[bestC])
			if better {
				bestC, bestT, bestComms = c, foundAt, delta
			}
		}
		if bestC < 0 {
			return nil, false // no cluster offers a legal slot at this II
		}
		rt.place(Instance{Orig: int32(v), Cluster: int16(bestC)}, op, bestT)
		time[v] = bestT
		cluster[v] = bestC
		placed[v] = true
		load[bestC]++
		comms += bestComms
		// Mirror the charged communications in the per-value flags.
		for _, eid := range g.In(v) {
			e := &g.Edges[eid]
			u := e.Src
			if u != v && placed[u] && e.Kind == ddg.EdgeData && cluster[u] != bestC && !g.Nodes[u].Op.IsStore() {
				comm[u] = true
			}
		}
		if !g.Nodes[v].Op.IsStore() {
			for _, eid := range g.Out(v) {
				e := &g.Edges[eid]
				if e.Dst != v && placed[e.Dst] && e.Kind == ddg.EdgeData && cluster[e.Dst] != bestC {
					comm[v] = true
					break
				}
			}
		}
	}
	sc.uasAssign = partition.Assignment{Cluster: cluster, K: K}
	return &sc.uasAssign, true
}

// TestUASAssignMatchesReference holds the sweep to its retired body —
// cluster, ok and every placed time — on the suite and corpus loops, on
// the Table 1 machines and one whose clusters lack classes of units, at
// every interval from 1 until the sweep succeeds and a few past it, each
// side on an arena kept across all its sweeps.
func TestUASAssignMatchesReference(t *testing.T) {
	hetero, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{{2, 0, 1}, {1, 2, 1}, {0, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	var loops []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		loops = append(loops, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := range 200 {
		loops = append(loops, spec.Loop(i))
	}
	stride := 1
	if testing.Short() || raceDetector {
		stride = 17
	}
	now, then := NewScratch(), NewScratch()
	sweeps := 0
	for _, m := range append(machine.PaperConfigs(), hetero) {
		for i := 0; i < len(loops); i += stride {
			g := loops[i]
			for ii, left := 1, 4; ii < 256 && left > 0; ii++ {
				a, ok := UASAssignScratch(g, m, ii, now)
				refA, refOK := referenceUASAssignScratch(g, m, ii, then)
				sweeps++
				if ok != refOK || ok && (!slices.Equal(a.Cluster, refA.Cluster) || !slices.Equal(now.uasTime, then.uasTime)) {
					t.Fatalf("%s on %s at II=%d: ok %v, clusters %v, times %v\nwant %v, %v, %v", g.Name, m.Name, ii,
						ok, a, now.uasTime, refOK, refA, then.uasTime)
				}
				if ok {
					left--
				}
			}
		}
	}
	t.Logf("%d sweeps", sweeps)
}
