package ddg

// This file provides graph analyses used throughout the scheduler:
// topological order over intra-iteration edges, strongly connected
// components over the full graph (recurrences), and ASAP/ALAP timing with
// slack, which drives the partitioner's edge weights.

// TopoOrder returns a topological order of the nodes considering only
// distance-0 edges. Graphs are validated to have an acyclic distance-0
// subgraph, so the order always exists.
func (g *Graph) TopoOrder() []int {
	n := len(g.Nodes)
	return g.TopoOrderInto(make([]int, 0, n), make([]int, n))
}

// TopoOrderInto is TopoOrder into caller-owned buffers: order (cleared,
// appended to and returned; it doubles as the BFS queue, which preserves
// the FIFO visit order) and indeg (overwritten, len ≥ NumNodes).
func (g *Graph) TopoOrderInto(order, indeg []int) []int {
	n := len(g.Nodes)
	indeg = indeg[:n]
	for i := range indeg {
		indeg[i] = 0
	}
	for i := range g.Edges {
		if g.Edges[i].Dist == 0 {
			indeg[g.Edges[i].Dst]++
		}
	}
	order = order[:0]
	for v := range g.Nodes {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, eid := range g.out[v] {
			e := &g.Edges[eid]
			if e.Dist != 0 {
				continue
			}
			indeg[e.Dst]--
			if indeg[e.Dst] == 0 {
				order = append(order, e.Dst)
			}
		}
	}
	return order
}

// TimingScratch is the reusable state of ComputeTimingScratch: a Timing
// plus the topological-order buffers, recycled across the many timing
// computations of an II search. The zero value is ready; not safe for
// concurrent use.
type TimingScratch struct {
	t     Timing
	order []int
	indeg []int
}

// ComputeTimingScratch is ComputeTiming into the scratch: the returned
// Timing aliases it and is valid until its next use.
func (g *Graph) ComputeTimingScratch(ii int, sc *TimingScratch) *Timing {
	n := len(g.Nodes)
	if cap(sc.indeg) < n {
		sc.indeg = make([]int, n)
		sc.order = make([]int, 0, n)
		sc.t.ASAP = make([]int, n)
		sc.t.ALAP = make([]int, n)
	}
	sc.order = g.TopoOrderInto(sc.order, sc.indeg)
	t := &sc.t
	t.ASAP = t.ASAP[:n]
	t.ALAP = t.ALAP[:n]
	for i := 0; i < n; i++ {
		t.ASAP[i] = 0
	}
	t.Length = 0
	g.fillTiming(ii, t, sc.order)
	return t
}

// SCCScratch is the reusable state of SCCsFlat: callers computing SCCs for
// many graphs (the MII bound of every compilation) recycle one scratch
// instead of reallocating the Tarjan state per graph. The zero value is
// ready; not safe for concurrent use.
type SCCScratch struct {
	index, lowlink []int
	onStack        []bool
	stack          []int
	frames         []sccFrame
	flat           []int
	off            []int
}

type sccFrame struct {
	v, ei int
}

// SCCsFlat is SCCs with arena storage: component i is flat[off[i]:off[i+1]]
// with len(off) = count+1, in reverse topological order of the
// condensation. The slices alias the scratch and are valid until its next
// use.
func (g *Graph) SCCsFlat(sc *SCCScratch) (flat []int, off []int) {
	n := len(g.Nodes)
	index := growInts(sc.index, n)
	sc.index = index
	lowlink := growInts(sc.lowlink, n)
	sc.lowlink = lowlink
	onStack := growBools(sc.onStack, n)
	sc.onStack = onStack
	for i := 0; i < n; i++ {
		index[i] = -1
		onStack[i] = false
	}
	stack := sc.stack[:0]
	callStack := sc.frames[:0]
	flat = sc.flat[:0]
	off = append(sc.off[:0], 0)
	next := 0
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], sccFrame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			recursed := false
			for f.ei < len(g.out[f.v]) {
				e := &g.Edges[g.out[f.v][f.ei]]
				f.ei++
				w := e.Dst
				if index[w] == -1 {
					index[w] = next
					lowlink[w] = next
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
				parent := &callStack[len(callStack)-1]
				if lowlink[v] < lowlink[parent.v] {
					lowlink[parent.v] = lowlink[v]
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
				off = append(off, len(flat))
			}
		}
	}
	sc.stack = stack
	sc.frames = callStack
	sc.flat = flat
	sc.off = off
	return flat, off
}

// growInts and growBools resize a buffer in place (contents unspecified);
// local equivalents of internal/arena's Grown, kept here so ddg stays
// dependency-free.
func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]bool, n)
}

// SCCs returns the strongly connected components of the graph considering
// all edges (loop-carried included). Components are returned in reverse
// topological order of the condensation. Singleton components without a
// self-loop are included; callers that only care about recurrences should
// filter with IsRecurrence.
func (g *Graph) SCCs() [][]int {
	n := len(g.Nodes)
	index := make([]int, n)
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var (
		stack []int
		comps [][]int
		next  int
	)
	// Iterative Tarjan to avoid deep recursion.
	type frame struct {
		v, ei int
	}
	var callStack []frame
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		callStack = append(callStack[:0], frame{v: root})
		index[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			recursed := false
			for f.ei < len(g.out[f.v]) {
				e := &g.Edges[g.out[f.v][f.ei]]
				f.ei++
				w := e.Dst
				if index[w] == -1 {
					index[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
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
				parent := &callStack[len(callStack)-1]
				if lowlink[v] < lowlink[parent.v] {
					lowlink[parent.v] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// IsRecurrence reports whether the component comp (as returned by SCCs)
// contains a cycle: either it has more than one node, or its single node has
// a self-loop.
func (g *Graph) IsRecurrence(comp []int) bool {
	if len(comp) > 1 {
		return true
	}
	v := comp[0]
	for _, eid := range g.out[v] {
		if g.Edges[eid].Dst == v {
			return true
		}
	}
	return false
}

// Timing holds per-node ASAP/ALAP issue times for one iteration of the loop
// at a given II, ignoring resource constraints. Loop-carried edges
// contribute a latency of Lat − Dist·II, clamped at zero-or-negative values
// so that timing never becomes circular (the graph restricted to positive
// effective latencies is acyclic for any II ≥ RecMII; for smaller II we
// still clamp, yielding a lower-bound estimate).
type Timing struct {
	ASAP   []int
	ALAP   []int
	Length int // critical-path length in cycles (issue of last op + its latency)
}

// ComputeTiming returns ASAP/ALAP times at initiation interval ii.
func (g *Graph) ComputeTiming(ii int) *Timing {
	n := len(g.Nodes)
	t := &Timing{ASAP: make([]int, n), ALAP: make([]int, n)}
	g.fillTiming(ii, t, g.TopoOrder())
	return t
}

// fillTiming computes ASAP/ALAP/Length into t (ASAP must be zeroed) over a
// precomputed topological order.
func (g *Graph) fillTiming(ii int, t *Timing, order []int) {
	// ASAP forward pass over distance-0 edges; loop-carried edges with
	// positive effective latency are rare at II ≥ RecMII and are folded in
	// with an iterative relaxation afterwards (bounded passes).
	for _, v := range order {
		for _, eid := range g.out[v] {
			e := &g.Edges[eid]
			if e.Dist != 0 {
				continue
			}
			if tt := t.ASAP[v] + e.Lat; tt > t.ASAP[e.Dst] {
				t.ASAP[e.Dst] = tt
			}
		}
	}
	// Fold loop-carried edges whose effective latency is positive. A few
	// relaxation passes suffice because such edges are clamped by II.
	for pass := 0; pass < 3; pass++ {
		changed := false
		for _, v := range order {
			for _, eid := range g.out[v] {
				e := &g.Edges[eid]
				eff := e.Lat - e.Dist*ii
				if e.Dist == 0 || eff <= 0 {
					continue
				}
				if tt := t.ASAP[v] + eff; tt > t.ASAP[e.Dst] {
					t.ASAP[e.Dst] = tt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Schedule length: last issue + producer latency of that op.
	for v := range g.Nodes {
		if l := t.ASAP[v] + g.Nodes[v].Op.Latency(); l > t.Length {
			t.Length = l
		}
	}
	// ALAP backward pass.
	for v := range g.Nodes {
		t.ALAP[v] = t.Length - g.Nodes[v].Op.Latency()
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, eid := range g.out[v] {
			e := &g.Edges[eid]
			if e.Dist != 0 {
				continue
			}
			if tt := t.ALAP[e.Dst] - e.Lat; tt < t.ALAP[v] {
				t.ALAP[v] = tt
			}
		}
	}
}

// Slack returns the scheduling freedom of edge e under timing t at the given
// II: how many cycles of extra latency the edge can absorb before it
// lengthens the critical path. Negative slack never occurs for distance-0
// edges under consistent timing; loop-carried edges use the modulo-adjusted
// latency.
func (t *Timing) Slack(g *Graph, e *Edge, ii int) int {
	eff := e.Lat - e.Dist*ii
	return t.ALAP[e.Dst] - t.ASAP[e.Src] - eff
}

// Depth returns per-node earliest times (ASAP at the given II); Height
// returns latest-from-end times (Length − ALAP − latency). These drive the
// scheduler's priority function.
func (t *Timing) Depth(v int) int { return t.ASAP[v] }

// Height returns the distance from node v's latest issue slot to the end of
// the schedule.
func (t *Timing) Height(g *Graph, v int) int {
	return t.Length - t.ALAP[v] - g.Nodes[v].Op.Latency()
}
