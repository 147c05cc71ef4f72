package sched

import "slices"

// igTiming computes resource-unaware ASAP/ALAP times for the instance graph
// at a given II, clamping loop-carried edges the same way ddg.ComputeTiming
// does. The slices alias the Scratch arena.
type igTiming struct {
	asap, alap []int
	length     int
}

func computeIGTiming(ig *IGraph, ii int, sc *Scratch) *igTiming {
	n := ig.NumInstances()
	t := &sc.timing
	sc.asap = zeroed(sc.asap, n)
	sc.alap = zeroed(sc.alap, n)
	*t = igTiming{asap: sc.asap, alap: sc.alap}
	order := igTopo(ig, sc)
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

// igTopo returns a topological order over distance-0 edges of the instance
// graph. Instances on zero-distance cycles (impossible for valid inputs)
// are appended at the end so the function is total. The slice aliases the
// Scratch arena; the order buffer doubles as the BFS queue.
func igTopo(ig *IGraph, sc *Scratch) []int32 {
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

// igTopoAll returns an order that is topological over the condensation of
// ALL edges (loop-carried included): SCCs in topological order, members by
// ASAP time. Under this order a node outside a recurrence only ever sees
// scheduled predecessors, so its placement window is open upward and a free
// reservation slot always exists when the II covers the resource counts.
// It is the robust last-resort order: the dist-0 topological order can
// strand nodes between a predecessor chain and a successor that a
// loop-carried forward edge dragged to an incompatible anchor.
func igTopoAll(ig *IGraph, tm *igTiming, sc *Scratch) []int32 {
	flat, off := igSCCs(ig, sc) // reverse topological order of the condensation
	order := sc.allOrder[:0]
	for i := len(off) - 2; i >= 0; i-- {
		comp := flat[off[i]:off[i+1]]
		slices.SortFunc(comp, func(a, b int32) int {
			if tm.asap[a] != tm.asap[b] {
				return tm.asap[a] - tm.asap[b]
			}
			return int(a - b)
		})
		order = append(order, comp...)
	}
	sc.allOrder = order
	return order
}

// sccFrame is one level of the iterative Tarjan walk.
type sccFrame struct {
	v  int32
	ei int
}

// igSCCs returns the strongly connected components of the instance graph
// over all edges, in reverse topological order of the condensation. The
// components are stored flat in the arena: component i is
// flat[off[i]:off[i+1]], with len(off) = count+1. The arena graph's are kept
// until it is rebuilt (igKey): each consumer sorts them by a total order.
func igSCCs(ig *IGraph, sc *Scratch) (flat []int32, off []int32) {
	if sc.sccOK && ig == &sc.ig {
		return sc.compFlat, sc.compOff
	}
	sc.sccOK = ig == &sc.ig
	n := ig.NumInstances()
	index := grown(sc.sccIndex, n)
	sc.sccIndex = index
	lowlink := grown(sc.sccLow, n)
	sc.sccLow = lowlink
	onStack := zeroed(sc.onStack, n)
	sc.onStack = onStack
	for i := range index {
		index[i] = -1
	}
	stack := sc.sccStack[:0]
	callStack := sc.sccFrames[:0]
	flat = sc.compFlat[:0]
	off = append(sc.compOff[:0], 0)
	var next int32
	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], sccFrame{v: root})
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			recursed := false
			out := ig.Out(f.v)
			for f.ei < len(out) {
				w := ig.Edges[out[f.ei]].Dst
				f.ei++
				if index[w] == -1 {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, sccFrame{v: w})
					recursed = true
					break
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
			}
			if recursed {
				continue
			}
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					flat = append(flat, w)
					if w == v {
						break
					}
				}
				off = append(off, int32(len(flat)))
			}
		}
	}
	sc.sccStack = stack
	sc.sccFrames = callStack
	sc.compFlat = flat
	sc.compOff = off
	return flat, off
}

// priorityOrder computes an SMS-style scheduling order (after Llosa et al.
// [18], which the base scheduler uses): recurrence components form priority
// groups (tightest first) together with the nodes on paths connecting them
// to previously ordered groups; each group is ordered by alternating
// top-down and bottom-up sweeps so that, outside recurrences, a node is
// placed while only its predecessors or only its successors are scheduled.
func priorityOrder(ig *IGraph, ii int, tm *igTiming, sc *Scratch) []int32 {
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
				if inGroup.Has(v) && !inOrder[v] && (best < 0 || tm.asap[v] < tm.asap[best]) {
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
						if tm.alap[a] != tm.alap[b] {
							better = tm.alap[a] < tm.alap[b]
						} else if tm.asap[a] != tm.asap[b] {
							better = tm.asap[a] < tm.asap[b]
						} else {
							better = a < b
						}
					} else {
						if tm.asap[a] != tm.asap[b] {
							better = tm.asap[a] > tm.asap[b]
						} else if tm.alap[a] != tm.alap[b] {
							better = tm.alap[a] > tm.alap[b]
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
	compFlat, compOff := igSCCs(ig, sc)
	recs := sc.recs[:0]
	for i := 0; i+1 < len(compOff); i++ {
		comp := compFlat[compOff[i]:compOff[i+1]]
		if len(comp) == 1 {
			v := comp[0]
			self := false
			for _, eid := range ig.Out(v) {
				if ig.Edges[eid].Dst == v {
					self = true
				}
			}
			if !self {
				continue
			}
		}
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
