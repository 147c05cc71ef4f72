package ddg

// This file provides the graph walks the scheduler is built on: a
// topological order over intra-iteration edges, ASAP/ALAP timing with
// slack (the partitioner's edge weights, the schedulers' priorities, §5.1's
// critical edges) and strongly connected components (recurrences). Each is
// one body that serves both the loop and the scheduler's instance graph,
// and works in caller-owned memory.

// Arc is an edge as the order and timing walks read it: the node it enters,
// its latency and its loop-carried distance in iterations.
type Arc struct{ Head, Lat, Dist int32 }

// Arcs is a graph as the order and timing walks read it, laid out in plain
// slices so their inner loops make no calls: nodes 0…n−1 with
// n = len(Off)−1, the arcs leaving node v are Arc[Off[v]:Off[v+1]] in the
// order they are followed, and Lat[v] is node v's producer latency (read by
// Times only).
type Arcs struct {
	Off []int32
	Arc []Arc
	Lat []int32
}

// OrderScratch is the working memory of Order, and of the loop's view for
// TopoOrder. The zero value is ready; not safe for concurrent use.
type OrderScratch struct {
	indeg, order []int32
	arcs         Arcs
}

// Order lists the nodes of a in a topological order of the distance-0
// arcs, by Kahn's algorithm. Roots are taken in ascending order and the
// order doubles as the FIFO queue, so the order depends on the numbering
// alone.
//
// The first sorted nodes are the topological order. A node on a distance-0
// cycle, or downstream of one, is never freed: those nodes follow in
// ascending order, so the order is total, and sorted < n says the graph
// has such a cycle — which a valid loop, and so each of its instance
// graphs, never has. The slice aliases sc and is valid until its next use.
func Order(a *Arcs, sc *OrderScratch) (order []int32, sorted int) {
	n := len(a.Off) - 1
	indeg := grow(sc.indeg, n)
	clear(indeg)
	for _, x := range a.Arc[:a.Off[n]] {
		if x.Dist == 0 {
			indeg[x.Head]++
		}
	}
	order = grow(sc.order, n)[:0]
	for v := int32(0); v < int32(n); v++ {
		if indeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, x := range a.Arc[a.Off[v]:a.Off[v+1]] {
			if x.Dist == 0 {
				if indeg[x.Head]--; indeg[x.Head] == 0 {
					order = append(order, x.Head)
				}
			}
		}
	}
	sorted = len(order)
	for v := int32(0); sorted < n && v < int32(n); v++ {
		if indeg[v] > 0 {
			order = append(order, v)
		}
	}
	sc.indeg, sc.order = indeg, order
	return order, sorted
}

// Timing holds per-node ASAP/ALAP issue times for one iteration of the loop
// at a given II, ignoring resource constraints. Loop-carried edges
// contribute a latency of Lat − Dist·II, and only when that is positive, so
// that timing never becomes circular (the graph restricted to positive
// effective latencies is acyclic for any II ≥ RecMII; for smaller II the
// bounded relaxation still stops, yielding a lower-bound estimate).
type Timing struct {
	ASAP   []int
	ALAP   []int
	Length int // critical-path length in cycles (issue of last op + its latency)
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

// TimingScratch is the working memory of Times: a Timing, recycled across
// the many timing computations of an II search, and the loop's view and
// order for ComputeTimingScratch, kept while the loop stays the same. The
// zero value is ready; not safe for concurrent use.
type TimingScratch struct {
	t     Timing
	order OrderScratch
	// the loop order was laid out from (a presentation's graph object
	// holds a new loop each Epoch), and its order
	g     *Graph
	epoch uint64
	topo  []int32
}

// Times returns the ASAP/ALAP issue times of a at initiation interval ii,
// walked in order, Order's (total) order of a.
//
// ASAP relaxes, node by node in order, every distance-0 arc and every
// loop-carried arc whose effective latency Lat − Dist·ii is positive, and
// repeats until a pass changes nothing, at most four passes. Length is the
// latest ASAP plus its node's latency; ALAP starts every node at Length
// less its latency and walks the order backwards over the distance-0 arcs.
// The Timing aliases sc and is valid until its next use.
func Times(a *Arcs, order []int32, ii int, sc *TimingScratch) *Timing {
	n := len(order)
	t := &sc.t
	t.ASAP, t.ALAP, t.Length = grow(t.ASAP, n), grow(t.ALAP, n), 0
	clear(t.ASAP)
	for pass := 0; pass < 4; pass++ {
		changed := false
		for _, v := range order {
			for _, x := range a.Arc[a.Off[v]:a.Off[v+1]] {
				eff := int(x.Lat) - int(x.Dist)*ii
				if x.Dist != 0 && eff <= 0 {
					continue
				}
				if tt := t.ASAP[v] + eff; tt > t.ASAP[x.Head] {
					t.ASAP[x.Head] = tt
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for v, l := range a.Lat[:n] {
		t.Length = max(t.Length, t.ASAP[v]+int(l))
	}
	for v, l := range a.Lat[:n] {
		t.ALAP[v] = t.Length - int(l)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, x := range a.Arc[a.Off[v]:a.Off[v+1]] {
			if x.Dist == 0 {
				t.ALAP[v] = min(t.ALAP[v], t.ALAP[x.Head]-int(x.Lat))
			}
		}
	}
	return t
}

// TopoOrder is Order of the loop: its nodes in a topological order of the
// distance-0 edges. A graph Validate accepts has one, so sorted is n.
func (g *Graph) TopoOrder(sc *OrderScratch) (order []int32, sorted int) {
	return Order(g.arcs(&sc.arcs), sc)
}

// ComputeTimingScratch is Times of the loop at initiation interval ii, in
// TopoOrder, with each node's operation latency. The loop's view and order
// do not depend on the II: sc keeps them across the calls of one II search,
// as long as it is asked about the same loop (the same graph at the same
// Epoch; graphs are immutable).
func (g *Graph) ComputeTimingScratch(ii int, sc *TimingScratch) *Timing {
	if sc.g != g || sc.epoch != g.epoch {
		sc.topo, _ = g.TopoOrder(&sc.order)
		sc.g, sc.epoch = g, g.epoch
	}
	return Times(&sc.order.arcs, sc.topo, ii, sc)
}

// arcs lays the loop out in a, as the order and timing walks read it.
func (g *Graph) arcs(a *Arcs) *Arcs {
	n := len(g.Nodes)
	a.Off, a.Arc, a.Lat = grow(a.Off, n+1), a.Arc[:0], grow(a.Lat, n)
	for v := range g.Nodes {
		a.Off[v] = int32(len(a.Arc))
		for _, e := range g.out[v] {
			x := &g.Edges[e]
			a.Arc = append(a.Arc, Arc{Head: int32(x.Dst), Lat: int32(x.Lat), Dist: int32(x.Dist)})
		}
		a.Lat[v] = int32(g.Nodes[v].Op.Latency())
	}
	a.Off[n] = int32(len(a.Arc))
	return a
}

// SCCScratch is the working memory of Components. Callers that walk many
// graphs — an MII bound per compilation, an instance graph per placement —
// keep one. The zero value is ready; not safe for concurrent use.
type SCCScratch struct {
	index, lowlink []int32
	onStack        []bool
	stack          []int32
	frames         []sccFrame
	flat, off      []int32
	cyclic         []bool
}

// sccFrame is one level of the walk: a node and its out-edges not yet
// followed.
type sccFrame struct {
	v    int32
	rest []int32
}

// Components finds the strongly connected components of a directed graph
// with Tarjan's algorithm, walked with an explicit stack so that a long
// chain cannot exhaust the goroutine's. The nodes are 0…n−1; out(v) lists
// the ids of the edges leaving v, in the order they are followed, and
// head(e) is the node edge e enters. The loop's (Graph.SCCs, for the MII
// bound) and the scheduler's instance graph's are both found here.
//
// Component i is flat[off[i]:off[i+1]], with len(off) = count+1, and the
// components come in reverse topological order of the condensation.
// cyclic[i] reports whether component i is a recurrence: it has more than
// one node, or its one node has an edge to itself. The slices alias sc and
// are valid until its next use.
func Components(n int, out func(v int32) []int32, head func(e int32) int32, sc *SCCScratch) (flat, off []int32, cyclic []bool) {
	index, lowlink, onStack := grow(sc.index, n), grow(sc.lowlink, n), grow(sc.onStack, n)
	sc.index, sc.lowlink, sc.onStack = index, lowlink, onStack
	for i := range index {
		index[i] = -1
	}
	clear(onStack)
	stack, frames := sc.stack[:0], sc.frames[:0]
	flat, off, cyclic = sc.flat[:0], append(sc.off[:0], 0), sc.cyclic[:0]
	var next int32
	for root := int32(0); root < int32(n); root++ {
		if index[root] != -1 {
			continue
		}
		index[root], lowlink[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		frames = append(frames, sccFrame{root, out(root)})
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.rest) > 0 {
				w := head(f.rest[0])
				f.rest = f.rest[1:]
				if index[w] == -1 {
					index[w], lowlink[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, sccFrame{w, out(w)})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				lowlink[p.v] = min(lowlink[p.v], lowlink[v])
			}
			if lowlink[v] != index[v] {
				continue
			}
			start := len(flat)
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
			cyclic = append(cyclic, len(flat)-start > 1 || selfLoop(v, out, head))
		}
	}
	sc.stack, sc.frames, sc.flat, sc.off, sc.cyclic = stack, frames, flat, off, cyclic
	return flat, off, cyclic
}

// selfLoop reports whether node v has an edge to itself.
func selfLoop(v int32, out func(int32) []int32, head func(int32) int32) bool {
	for _, e := range out(v) {
		if head(e) == v {
			return true
		}
	}
	return false
}

// SCCs returns the strongly connected components of g over all its edges,
// loop-carried included, laid out as Components lays them out.
func (g *Graph) SCCs(sc *SCCScratch) (flat, off []int32, cyclic []bool) {
	return Components(len(g.Nodes),
		func(v int32) []int32 { return g.out[v] },
		func(e int32) int32 { return int32(g.Edges[e].Dst) }, sc)
}

// grow resizes a buffer in place, contents unspecified: internal/arena's
// Grown, kept here so that ddg stays dependency-free.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}
