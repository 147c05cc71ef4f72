package ddg

import (
	"sync"
	"sync/atomic"
)

// presentations numbers the loops Presentations renumber (Graph.Epoch).
var presentations atomic.Uint64

// Presentation is a loop renumbered into its topological-canonical
// presentation: the nodes in Kahn order over the distance-0 edges, the
// ready node with the least canonical position (CanonicalForm().Perm)
// taken first, and the edges sorted by (src, dst, kind, dist, lat) in that
// numbering. Every heuristic below the engine breaks ties by node or edge
// id, so compiling this presentation instead of the one a loop arrived in
// makes the result a function of the loop, not of its numbering — wherever
// the labeling is canonical (Canonical.Complete, or refinement cells that
// are orbits). The order is topological because the ids then follow the
// dependences, as they do in the loops the heuristics were tuned on.
//
// The relabeled graph and every buffer are the Presentation's own and are
// overwritten by the next Of of another loop; the zero value is ready. Not
// safe for concurrent use.
type Presentation struct {
	// Perm maps a node of the loop last presented to its node in the
	// presentation.
	Perm []int32

	g     Graph
	src   *Graph // the loop last presented, and its epoch
	epoch uint64
	inv   []int32 // canonical position → node of the source loop
	old   []int32 // node of the presentation → node of the source loop
	indeg []int32
	ready []int32 // a min-heap of canonical positions
	deg   []int32
	lists [][]int32
	ids   []int32
}

// Of renumbers g into the presentation and returns it. The graph it returns
// carries g's name, no labels and no memory of g's; it is the same object
// on every call, valid until the next Of. Presenting the loop last
// presented again renumbers nothing: the graph, its Epoch and Perm stay.
func (p *Presentation) Of(g *Graph) *Graph {
	if g == p.src && g.epoch == p.epoch {
		return &p.g
	}
	p.src, p.epoch = g, g.epoch
	n, m := len(g.Nodes), len(g.Edges)
	canon := g.CanonicalForm().Perm
	p.inv = grow(p.inv, n)
	for v, c := range canon {
		p.inv[c] = int32(v)
	}
	indeg := grow(p.indeg, n)
	clear(indeg)
	for i := range g.Edges {
		if e := &g.Edges[i]; e.Dist == 0 {
			indeg[e.Dst]++
		}
	}
	p.indeg, p.ready, p.Perm = indeg, p.ready[:0], grow(p.Perm, n)
	for v := range n {
		if indeg[v] == 0 {
			p.push(canon[v])
		}
	}
	q := &p.g
	q.Name, q.canonOnce, q.canon, q.presented = g.Name, sync.Once{}, Canonical{}, true
	q.epoch = presentations.Add(1)
	q.Nodes, p.old = grow(q.Nodes, n), grow(p.old, n)
	for i := 0; len(p.ready) > 0; i++ {
		v := p.inv[p.pop()]
		p.Perm[v], p.old[i] = int32(i), v
		q.Nodes[i] = Node{ID: i, Op: g.Nodes[v].Op}
		for _, eid := range g.out[v] {
			if e := &g.Edges[eid]; e.Dist == 0 {
				if indeg[e.Dst]--; indeg[e.Dst] == 0 {
					p.push(canon[e.Dst])
				}
			}
		}
	}
	// Each node's out-edges in turn, sorted among themselves by (dst, kind,
	// dist, lat): the edges come out sorted by (src, dst, kind, dist, lat).
	q.Edges = grow(q.Edges, m)[:0]
	p.deg = grow(p.deg, 2*n)
	clear(p.deg)
	for i, v := range p.old {
		from := len(q.Edges)
		for _, eid := range g.out[v] {
			e := &g.Edges[eid]
			q.Edges = append(q.Edges, Edge{ID: len(q.Edges), Src: i, Dst: int(p.Perm[e.Dst]), Dist: e.Dist, Kind: e.Kind, Lat: e.Lat})
			p.deg[2*p.Perm[e.Dst]+1]++
		}
		es := q.Edges[from:]
		for j := 1; j < len(es); j++ {
			for k := j; k > 0 && edgeAfter(&es[k-1], &es[k]); k-- {
				es[k], es[k-1] = es[k-1], es[k]
				es[k].ID, es[k-1].ID = es[k-1].ID, es[k].ID
			}
		}
		p.deg[2*i] = int32(len(es))
	}
	p.lists, p.ids = grow(p.lists, 2*n), grow(p.ids, 2*m)
	q.adjacencyInto(p.deg, p.lists, p.ids)
	return q
}

// edgeAfter orders two edges of one source by (dst, kind, dist, lat).
func edgeAfter(a, b *Edge) bool {
	if a.Dst != b.Dst {
		return a.Dst > b.Dst
	}
	return edgeBefore(b, a)
}

// push adds canonical position c to the ready heap.
func (p *Presentation) push(c int32) {
	h := append(p.ready, c)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	p.ready = h
}

// pop removes and returns the least canonical position on the ready heap.
func (p *Presentation) pop() int32 {
	h := p.ready
	least, last := h[0], len(h)-1
	h[0], h = h[last], h[:last]
	for i := 0; ; {
		m := i
		for _, kid := range [2]int{2*i + 1, 2*i + 2} {
			if kid < last && h[kid] < h[m] {
				m = kid
			}
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	p.ready = h
	return least
}

// Release lets go of the last presented loop and its name; the buffers stay.
func (p *Presentation) Release() { p.src, p.g.Name = nil, "" }
