package pipeline

import (
	"fmt"

	"clusched/internal/arena"
	"clusched/internal/ddg"
)

// remapSlab recycles one RemapResult's working vectors as one slab: the
// inverse labeling, the permutation and the chain heads, a node each, and
// the chain links, an edge each.
var remapSlab arena.Pool[[]int32]

// RemapResult transplants a cached compilation onto an isomorphic graph: it
// composes the two canonical labelings into perm (node v of g is node
// perm[v] of cached.Loop), checks that perm is an isomorphism, and moves
// the schedule with the mover every compilation's map-back uses
// (sched.Schedule.Relabeled). An isomorphic image has the same instances,
// resource use, length, stage count and register pressure, so nothing is
// re-proven: the check is what stands between a canonical-Sum collision,
// or a wrong perm, and a wrong schedule. opts are the job's, which the
// caller's key makes the cached compilation's; the move reads none.
func RemapResult(cached *Result, g *ddg.Graph, opts Options) (*Result, error) {
	src := cached.Loop
	if cached.Schedule == nil || cached.Placement == nil {
		return nil, fmt.Errorf("pipeline: remap: cached result has no schedule")
	}
	n, e := g.NumNodes(), g.NumEdges()
	if src.NumNodes() != n || src.NumEdges() != e {
		return nil, fmt.Errorf("pipeline: remap: graph size mismatch")
	}
	cSrc, cDst := src.CanonicalForm(), g.CanonicalForm()
	if cSrc.Sum != cDst.Sum {
		return nil, fmt.Errorf("pipeline: remap: canonical fingerprints differ")
	}
	slab := remapSlab.Get()
	defer remapSlab.Put(slab)
	*slab = arena.Grown(*slab, 3*n+e)
	inv, perm, head, next := (*slab)[:n], (*slab)[n:2*n], (*slab)[2*n:3*n], (*slab)[3*n:]
	for v, c := range cSrc.Perm {
		inv[c] = int32(v)
	}
	for v, c := range cDst.Perm {
		perm[v] = inv[c]
	}
	if !isomorphic(g, src, perm, head, next) {
		return nil, fmt.Errorf("pipeline: remap: %s is not an isomorph of %s under their canonical labelings", g.Name, src.Name)
	}
	s, err := cached.Schedule.Relabeled(g, perm)
	if err != nil {
		return nil, fmt.Errorf("pipeline: remap: %w", err)
	}
	out := *cached
	out.Loop, out.Schedule, out.Placement = g, s, s.IG.P
	return &out, nil
}

// isomorphic reports whether the bijection perm maps g onto h, whose edge
// count is g's: every node onto one of the same operation, and every edge
// onto a distinct edge of h between the images of its ends, of the same
// kind, distance and latency (a multiset match: parallel edges count). It
// is one pass: each node of h chains its out-edges by destination in head
// and next, and an edge of g takes the first match off its chain.
func isomorphic(g, h *ddg.Graph, perm, head, next []int32) bool {
	for i := range head {
		head[i] = -1
	}
	for v := range g.Nodes {
		u := int(perm[v])
		if g.Nodes[v].Op != h.Nodes[u].Op {
			return false
		}
		out := h.Out(u)
		for _, id := range out {
			d := h.Edges[id].Dst
			next[id], head[d] = head[d], id
		}
		matched := true
		for _, id := range g.Out(v) {
			e := &g.Edges[id]
			at := &head[perm[e.Dst]]
			for *at >= 0 {
				if f := &h.Edges[*at]; f.Kind == e.Kind && f.Dist == e.Dist && f.Lat == e.Lat {
					break
				}
				at = &next[*at]
			}
			if *at < 0 {
				matched = false
				break
			}
			*at = next[*at]
		}
		for _, id := range out {
			head[h.Edges[id].Dst] = -1
		}
		if !matched {
			return false
		}
	}
	return true
}
