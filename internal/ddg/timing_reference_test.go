package ddg

import (
	"fmt"
	"slices"
)

// This file keeps the loop graph's retired walks verbatim (identifiers
// suffixed Reference, nothing else touched) as the oracles of the shared
// bodies in traverse.go: the Kahn order TopoOrderInto, the timing
// ComputeTimingScratch, and Validate's depth-first zero-distance cycle
// check. The order must agree exactly. The timing must agree wherever the
// retired one is a fixpoint of its own constraints; where it is not (its
// loop-carried passes never re-relaxed the distance-0 edges behind them)
// the shared one is never earlier at any node. The cycle check must accept
// and refuse the same graphs.

func (g *Graph) topoOrderIntoReference(order, indeg []int) []int {
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

type timingScratchReference struct {
	t     Timing
	order []int
	indeg []int
}

func (g *Graph) computeTimingScratchReference(ii int, sc *timingScratchReference) *Timing {
	n := len(g.Nodes)
	if cap(sc.indeg) < n {
		sc.indeg = make([]int, n)
		sc.order = make([]int, 0, n)
		sc.t.ASAP = make([]int, n)
		sc.t.ALAP = make([]int, n)
	}
	order := g.topoOrderIntoReference(sc.order, sc.indeg)
	sc.order = order
	t := &sc.t
	t.ASAP = t.ASAP[:n]
	t.ALAP = t.ALAP[:n]
	clear(t.ASAP)
	t.Length = 0
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
	return t
}

type validateScratchReference struct {
	color []int8
	stack []dfsFrameReference
}

type dfsFrameReference struct {
	v    int
	next int
}

func (g *Graph) checkZeroDistanceAcyclicReference(scratch *validateScratchReference) error {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	n := len(g.Nodes)
	if cap(scratch.color) < n {
		scratch.color = make([]int8, n)
		scratch.stack = make([]dfsFrameReference, 0, n) // a DFS path visits a node once
	}
	color := scratch.color[:n]
	clear(color)
	// Iterative DFS to avoid recursion depth limits on long chains.
	stack := scratch.stack
	for start := range g.Nodes {
		if color[start] != white {
			continue
		}
		stack = append(stack[:0], dfsFrameReference{v: start})
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.next < len(g.out[f.v]) {
				e := &g.Edges[g.out[f.v][f.next]]
				f.next++
				if e.Dist != 0 {
					continue
				}
				switch color[e.Dst] {
				case gray:
					return fmt.Errorf("zero-distance cycle through node %d", e.Dst)
				case white:
					color[e.Dst] = gray
					stack = append(stack, dfsFrameReference{v: e.Dst})
					advanced = true
				}
				if advanced {
					break
				}
			}
			if !advanced {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// DiffTimingReference holds the loop's order and its timing at ii to the
// retired bodies. moved reports that the retired timing was not a fixpoint
// of its constraints, where the shared one may differ; err says how the
// shared one broke the contract.
func DiffTimingReference(g *Graph, ii int) (moved bool, err error) {
	n := len(g.Nodes)
	want := g.topoOrderIntoReference(nil, make([]int, n))
	got, sorted := g.TopoOrder(&OrderScratch{})
	if sorted != n || !slices.Equal(widen(got), want) {
		return false, fmt.Errorf("%s: order %v (%d sorted), retired %v", g.Name, got, sorted, want)
	}
	ref := g.computeTimingScratchReference(ii, &timingScratchReference{})
	tm := g.ComputeTimingScratch(ii, &TimingScratch{})
	for i := range g.Edges {
		e := &g.Edges[i]
		if eff := e.Lat - e.Dist*ii; (e.Dist == 0 || eff > 0) && ref.ASAP[e.Dst] < ref.ASAP[e.Src]+eff {
			moved = true
		}
	}
	if !moved {
		if tm.Length != ref.Length || !slices.Equal(tm.ASAP, ref.ASAP) || !slices.Equal(tm.ALAP, ref.ALAP) {
			return false, fmt.Errorf("%s at II=%d: timing %v %v %d, retired (a fixpoint) %v %v %d",
				g.Name, ii, tm.ASAP, tm.ALAP, tm.Length, ref.ASAP, ref.ALAP, ref.Length)
		}
		return false, nil
	}
	for v := range n {
		if tm.ASAP[v] < ref.ASAP[v] {
			return true, fmt.Errorf("%s at II=%d: node %d ASAP %d, earlier than the retired %d", g.Name, ii, v, tm.ASAP[v], ref.ASAP[v])
		}
	}
	return true, nil
}

func widen(s []int32) []int {
	out := make([]int, len(s))
	for i, v := range s {
		out[i] = int(v)
	}
	return out
}
