package sched

import (
	"slices"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// igTopo returns the instance graph as ddg's order and timing walks read
// it, edges at their ordering latency, and its topological order over
// distance-0 edges (ddg.Order). The arena graph's are kept until it is
// rebuilt (igKey): neither depends on the II. Both alias the Scratch arena.
func igTopo(ig *IGraph, sc *Scratch) (*ddg.Arcs, []int32) {
	a := &sc.arcs
	if sc.topoOK && ig == &sc.ig {
		return a, sc.topo
	}
	sc.topoOK = ig == &sc.ig
	n := ig.NumInstances()
	a.Off, a.Arc, a.Lat = grown(a.Off, n+1), grown(a.Arc, len(ig.outIdx)), grown(a.Lat, n)
	copy(a.Off, ig.outOff)
	for k, e := range ig.outIdx {
		x := &ig.Edges[e]
		a.Arc[k] = ddg.Arc{Head: x.Dst, Lat: x.OrderLat, Dist: x.Dist}
	}
	for i := range a.Lat {
		a.Lat[i] = int32(ig.Latency(int32(i)))
	}
	sc.topo, _ = ddg.Order(a, &sc.order)
	return a, sc.topo
}

// computeIGTiming returns the instance graph's resource-unaware ASAP/ALAP
// times at the given II (ddg.Times over igTopo). The Timing aliases the
// Scratch arena.
func computeIGTiming(ig *IGraph, ii int, sc *Scratch) *ddg.Timing {
	a, order := igTopo(ig, sc)
	return ddg.Times(a, order, ii, &sc.timing)
}

// InstanceTiming expands p, at the machine's real bus latency, into the
// arena's instance graph and returns it with its ASAP/ALAP timing at ii —
// what the scheduler's priorities are computed from, and what §5.1's length
// replication reads its critical edges off. Both are valid until the
// arena's next use.
func (sc *Scratch) InstanceTiming(p *Placement, m machine.Config, ii int) (*IGraph, *ddg.Timing, error) {
	ig, err := sc.buildIGraph(p, m, false)
	if err != nil {
		return nil, nil, err
	}
	return ig, computeIGTiming(ig, ii, sc), nil
}

// igTopoAll returns an order that is topological over the condensation of
// ALL edges (loop-carried included): SCCs in topological order, members by
// ASAP time. Under this order a node outside a recurrence only ever sees
// scheduled predecessors, so its placement window is open upward and a free
// reservation slot always exists when the II covers the resource counts.
// It is the robust last-resort order: the dist-0 topological order can
// strand nodes between a predecessor chain and a successor that a
// loop-carried forward edge dragged to an incompatible anchor.
func igTopoAll(ig *IGraph, tm *ddg.Timing, sc *Scratch) []int32 {
	flat, off, _ := igSCCs(ig, sc) // reverse topological order of the condensation
	order := sc.allOrder[:0]
	for i := len(off) - 2; i >= 0; i-- {
		comp := flat[off[i]:off[i+1]]
		slices.SortFunc(comp, func(a, b int32) int {
			if tm.ASAP[a] != tm.ASAP[b] {
				return tm.ASAP[a] - tm.ASAP[b]
			}
			return int(a - b)
		})
		order = append(order, comp...)
	}
	sc.allOrder = order
	return order
}

// igSCCs returns the strongly connected components of the instance graph
// over all edges, as ddg.Components lays them out: component i is
// flat[off[i]:off[i+1]], in reverse topological order of the condensation,
// and cyclic[i] says whether it is a recurrence. The arena graph's are kept
// until it is rebuilt (igKey): each consumer sorts them by a total order.
func igSCCs(ig *IGraph, sc *Scratch) (flat, off []int32, cyclic []bool) {
	if sc.sccOK && ig == &sc.ig {
		return sc.compFlat, sc.compOff, sc.compCyclic
	}
	sc.sccOK = ig == &sc.ig
	flat, off, cyclic = ddg.Components(ig.NumInstances(), ig.Out,
		func(e int32) int32 { return ig.Edges[e].Dst }, &sc.sccs)
	sc.compFlat, sc.compOff, sc.compCyclic = flat, off, cyclic
	return flat, off, cyclic
}

// priorityOrder computes an SMS-style scheduling order (after Llosa et al.
// [18], which the base scheduler uses): recurrence components form priority
// groups (tightest first) together with the nodes on paths connecting them
// to previously ordered groups; each group is ordered by alternating
// top-down and bottom-up sweeps so that, outside recurrences, a node is
// placed while only its predecessors or only its successors are scheduled.
func priorityOrder(ig *IGraph, ii int, tm *ddg.Timing, sc *Scratch) []int32 {
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
			// Pick the most critical candidate: top-down favors small ALAP
			// (high height), bottom-up favors large ASAP (high depth).
			h := readyHeap{items: ready, tm: tm, bottomUp: dir == bottomUp, queued: &sc.seedMark}
			h.init(n)
			for len(h.items) > 0 {
				v := h.pop()
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
							h.push(w)
						}
					}
				} else {
					for _, eid := range ig.In(v) {
						w := ig.Edges[eid].Src
						if inGroup.Has(w) && !inOrder[w] {
							h.push(w)
						}
					}
				}
			}
			ready = h.items
			sc.ready = ready[:0]
		}
	}
	sc.priOrder = order
	return order
}

// readyHeap is priorityOrder's ready set: a binary heap whose root is the
// most critical candidate — top-down the smallest ALAP, then the smallest
// ASAP; bottom-up the largest ASAP, then the largest ALAP; the lowest
// instance last — so each pick is the one a scan of the whole set makes.
// It holds an instance once however often it is pushed: a list with
// repeats yields the same picks, its repeats skipped later as ordered.
type readyHeap struct {
	items    []int32
	tm       *ddg.Timing
	bottomUp bool
	queued   *marks // the instances ever pushed
}

// before reports whether a is picked before b.
func (h *readyHeap) before(a, b int32) bool {
	asap, alap := h.tm.ASAP, h.tm.ALAP
	if h.bottomUp {
		if asap[a] != asap[b] {
			return asap[a] > asap[b]
		}
		if alap[a] != alap[b] {
			return alap[a] > alap[b]
		}
		return a < b
	}
	if alap[a] != alap[b] {
		return alap[a] < alap[b]
	}
	if asap[a] != asap[b] {
		return asap[a] < asap[b]
	}
	return a < b
}

// init heaps items, distinct instances of n.
func (h *readyHeap) init(n int) {
	h.queued.Reset(n)
	for _, v := range h.items {
		h.queued.Set(v)
	}
	for i := len(h.items)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *readyHeap) push(v int32) {
	if h.queued.Has(v) {
		return
	}
	h.queued.Set(v)
	h.items = append(h.items, v)
	it := h.items
	for i := len(it) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.before(it[i], it[p]) {
			break
		}
		it[i], it[p] = it[p], it[i]
		i = p
	}
}

func (h *readyHeap) pop() int32 {
	it := h.items
	v, last := it[0], len(it)-1
	it[0] = it[last]
	h.items = it[:last]
	h.down(0)
	return v
}

func (h *readyHeap) down(i int) {
	it := h.items
	for {
		c := 2*i + 1
		if c >= len(it) {
			return
		}
		if r := c + 1; r < len(it) && h.before(it[r], it[c]) {
			c = r
		}
		if !h.before(it[c], it[i]) {
			return
		}
		it[i], it[c] = it[c], it[i]
		i = c
	}
}

// recComp is one recurrence component considered for a priority group.
type recComp struct {
	nodes   []int32
	tension int
}

// buildGroups partitions the instances into SMS priority groups: one per
// recurrence component in decreasing tension order, each widened with the
// nodes on paths connecting it to earlier groups, plus a final group with
// everything else. Groups are stored flat in the arena: group i is
// flat[off[i]:off[i+1]]. Because groups are disjoint and emitted in
// priority order, the flat prefix before a group is exactly the "prior"
// node set its path-widening searches from.
func buildGroups(ig *IGraph, sc *Scratch) (flat []int32, off []int32) {
	if sc.groupsOK && ig == &sc.ig {
		return sc.groupFlat, sc.groupOff
	}
	sc.groupsOK = ig == &sc.ig
	n := ig.NumInstances()
	compFlat, compOff, cyclic := igSCCs(ig, sc)
	recs := sc.recs[:0]
	for i, rec := range cyclic {
		if !rec {
			continue
		}
		comp := compFlat[compOff[i]:compOff[i+1]]
		sc.inMark.Reset(n)
		for _, v := range comp {
			sc.inMark.Set(v)
		}
		tension := 0
		for _, v := range comp {
			for _, eid := range ig.Out(v) {
				if e := &ig.Edges[eid]; sc.inMark.Has(e.Dst) {
					tension += int(e.Lat)
				}
			}
		}
		slices.Sort(comp)
		recs = append(recs, recComp{nodes: comp, tension: tension})
	}
	sc.recs = recs
	slices.SortStableFunc(recs, func(a, b recComp) int { return b.tension - a.tension })

	grouped := zeroed(sc.grouped, n)
	sc.grouped = grouped
	flat = sc.groupFlat[:0]
	off = append(sc.groupOff[:0], 0)
	for _, rc := range recs {
		prior := flat // the concatenation of all earlier groups
		start := len(flat)
		flat = append(flat, rc.nodes...)
		if len(prior) > 0 {
			// Nodes on paths between the prior groups and this component.
			descPrior := reach(ig, prior, false, &sc.reachA, sc)
			ancComp := reach(ig, rc.nodes, true, &sc.reachB, sc)
			descComp := reach(ig, rc.nodes, false, &sc.reachC, sc)
			ancPrior := reach(ig, prior, true, &sc.reachD, sc)
			sc.inMark.Reset(n)
			for _, c := range rc.nodes {
				sc.inMark.Set(c)
			}
			for v := int32(0); v < int32(n); v++ {
				if grouped[v] {
					continue
				}
				onPath := (descPrior[v] && ancComp[v]) || (descComp[v] && ancPrior[v])
				if onPath && !sc.inMark.Has(v) {
					flat = append(flat, v)
				}
			}
		}
		for _, v := range flat[start:] {
			grouped[v] = true
		}
		off = append(off, int32(len(flat)))
	}
	start := len(flat)
	for v := int32(0); v < int32(n); v++ {
		if !grouped[v] {
			flat = append(flat, v)
		}
	}
	if len(flat) > start {
		off = append(off, int32(len(flat)))
	}
	sc.groupFlat = flat
	sc.groupOff = off
	return flat, off
}

// reach returns the set of nodes reachable from seeds following edges
// forward (backward when up is true), seeds included, in the caller's
// buffer.
func reach(ig *IGraph, seeds []int32, up bool, buf *[]bool, sc *Scratch) []bool {
	n := ig.NumInstances()
	seen := zeroed(*buf, n)
	*buf = seen
	queue := sc.reachBuf[:0]
	for _, s := range seeds {
		if !seen[s] {
			seen[s] = true
			queue = append(queue, s)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		adj := ig.Out(v)
		if up {
			adj = ig.In(v)
		}
		for _, eid := range adj {
			w := ig.Edges[eid].Dst
			if up {
				w = ig.Edges[eid].Src
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	sc.reachBuf = queue[:0]
	return seen
}
