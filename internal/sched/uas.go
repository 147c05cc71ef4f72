package sched

import (
	"cmp"
	"slices"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
)

// UASAssignScratch derives a cluster assignment by greedy unified assign-and-
// schedule, the prior-art family (Özer et al.) the paper's §6 compares
// against: there is no partitioning phase — each node picks its cluster
// during an SMS-style placement sweep, judged by functional-unit
// availability in the reservation table, by the inter-cluster
// communications the choice would add against the bus budget at this II,
// and by load balance. The sweep works on the original DDG (copies are not
// materialized; a communicated value is charged the bus latency on every
// crossing edge and one bus transfer against BusComs(II), matching the
// broadcast model of §3.1); the caller turns the returned assignment into a
// placement and runs the real scheduler, which inserts and schedules the
// actual copy operations.
//
// ok is false when the sweep fails at this II: some node had no cluster
// with both a free slot in its dependence window and headroom in the bus
// budget. The caller retries at II+1. The timing, ordering, reservation-table
// and bookkeeping buffers live in sc, the caller's scratch arena, recycled
// across II attempts — and so does the returned assignment, which is the
// sweep's own cluster vector: valid until the next sweep on sc.
func UASAssignScratch(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) (*partition.Assignment, bool) {
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
	tm := g.ComputeTimingScratch(ii, &sc.uasTiming)

	// Placement order: most time-constrained first (smallest ALAP, then
	// smallest ASAP) — the greedy analogue of scheduling critical chains
	// before slack-rich ones. Deterministic tie-break on the node id.
	order := grown(sc.uasOrder, n)
	sc.uasOrder = order
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
			inst := Instance{Orig: v, Cluster: c}
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
		rt.place(Instance{Orig: v, Cluster: bestC}, op, bestT)
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
