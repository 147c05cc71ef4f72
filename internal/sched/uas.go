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

	near := grown(sc.uasNear, 4*K)
	sc.uasNear = near
	predMax, succMin, prodIn, consIn := near[:K], near[K:2*K], near[2*K:3*K], near[3*K:]

	for _, vv := range order {
		v := int(vv)
		op := g.Nodes[v].Op
		cl := op.Class()
		// The node's placed neighbours, read once for every cluster. A
		// dependence bound holds wherever the node goes for a memory edge;
		// for a data edge it is kept per cluster of the neighbour, and
		// grows by the bus latency in every other cluster, so a cluster's
		// bound is its own maximum (minimum) or the best of the others'
		// plus (less) the latency. A producer is counted once, in its
		// cluster (the marks dedupe multi-edges); a consumer edge in the
		// consumer's.
		for c := range K {
			predMax[c], succMin[c], prodIn[c], consIn[c] = -inf, inf, 0, 0
		}
		memPred, memSucc := -inf, inf
		hasPred, hasSucc := false, false
		prods, conss := 0, 0
		sc.uasMark.Reset(n)
		for _, eid := range g.In(v) {
			e := &g.Edges[eid]
			u := e.Src
			if u == v || !placed[u] {
				continue
			}
			hasPred = true
			t := time[u] + e.Lat - ii*e.Dist
			if e.Kind != ddg.EdgeData {
				memPred = max(memPred, t)
				continue
			}
			predMax[cluster[u]] = max(predMax[cluster[u]], t)
			if !comm[u] && !g.Nodes[u].Op.IsStore() && !sc.uasMark.Has(int32(u)) {
				sc.uasMark.Set(int32(u))
				prodIn[cluster[u]]++
				prods++
			}
		}
		for _, eid := range g.Out(v) {
			e := &g.Edges[eid]
			w := e.Dst
			if w == v || !placed[w] {
				continue
			}
			hasSucc = true
			t := time[w] - e.Lat + ii*e.Dist
			if e.Kind != ddg.EdgeData {
				memSucc = min(memSucc, t)
				continue
			}
			succMin[cluster[w]] = min(succMin[cluster[w]], t)
			consIn[cluster[w]]++
			conss++
		}
		pred1, pred1At, pred2 := bestTwo(predMax, false)
		succ1, succ1At, succ2 := bestTwo(succMin, true)

		bestC, bestT, bestComms := -1, 0, 0
		for c := 0; c < K; c++ {
			if m.FUAt(c, cl) == 0 {
				continue
			}
			// Dependence window against already-placed neighbors; a data
			// edge that would cross clusters pays the bus latency.
			estart, far := max(memPred, predMax[c]), pred1
			if c == pred1At {
				far = pred2
			}
			if far != -inf {
				estart = max(estart, far+m.BusLatency)
			}
			lstart, far := min(memSucc, succMin[c]), succ1
			if c == succ1At {
				far = succ2
			}
			if far != inf {
				lstart = min(lstart, far-m.BusLatency)
			}
			row := c*ddg.NumClasses + int(cl)
			var found bool
			var foundAt int
			switch {
			case hasPred && hasSucc:
				if estart > lstart {
					continue // window closed in this cluster
				}
				foundAt, found = rt.firstFree(row, estart, min(lstart-estart+1, ii))
			case hasSucc:
				foundAt, found = rt.lastFree(row, lstart, ii)
			default:
				if !hasPred {
					estart = tm.ASAP[v]
				}
				foundAt, found = rt.firstFree(row, estart, ii)
			}
			if !found {
				continue
			}
			// Communications this choice adds: producers placed elsewhere
			// whose value is not yet on a bus, plus v itself if a placed
			// consumer sits in another cluster. Buses broadcast, so each
			// value is charged once.
			delta := prods - prodIn[c]
			if !op.IsStore() && conss > consIn[c] {
				delta++
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

const uasIDBits, uasTimeBits = 20, 22 // a uasOrder key: ALAP‖ASAP‖id

// bestTwo returns the greatest of vals — the least, if least is set — the
// first index it is at, and the best of the values at the other indices.
// vals holds two values at least.
func bestTwo(vals []int, least bool) (best, at, next int) {
	sign := 1
	if least {
		sign = -1
	}
	best, at, next = vals[0], 0, vals[1]
	if sign*next > sign*best {
		best, at, next = next, 1, best
	}
	for i := 2; i < len(vals); i++ {
		if x := vals[i]; sign*x > sign*best {
			best, at, next = x, i, best
		} else if sign*x > sign*next {
			next = x
		}
	}
	return best, at, next
}

// uasOrder is the sweep's placement order: most time-constrained first
// (smallest ALAP, then smallest ASAP, then id) — the greedy analogue of
// scheduling critical chains first. Where every field fits (latencies are a
// job's to set) the keys sort as integers; the comparator sorts the rest.
func uasOrder(tm *ddg.Timing, sc *Scratch) []int32 {
	n := len(tm.ASAP)
	order, keys := grown(sc.uasOrder, n), grown(sc.uasKeys, n)
	sc.uasOrder, sc.uasKeys = order, keys
	packable := n <= 1<<uasIDBits
	for v := range order {
		order[v] = int32(v)
		keys[v] = uint64(tm.ALAP[v])<<(uasTimeBits+uasIDBits) | uint64(tm.ASAP[v])<<uasIDBits | uint64(v)
		packable = packable && uint(tm.ALAP[v]) < 1<<uasTimeBits && uint(tm.ASAP[v]) < 1<<uasTimeBits
	}
	if !packable {
		slices.SortFunc(order, func(a, b int32) int {
			return cmp.Or(cmp.Compare(tm.ALAP[a], tm.ALAP[b]), cmp.Compare(tm.ASAP[a], tm.ASAP[b]), cmp.Compare(a, b))
		})
		return order
	}
	slices.Sort(keys)
	for i, k := range keys {
		order[i] = int32(k & (1<<uasIDBits - 1))
	}
	return order
}
