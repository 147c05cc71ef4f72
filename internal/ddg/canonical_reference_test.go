package ddg

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// This file keeps the canonical labeling that shipped through JobKey v3 —
// Weisfeiler–Leman refinement that re-ranks every colour by sorted
// signature hash every round — verbatim (identifiers suffixed Reference,
// nothing else touched) as the class oracle for the partition-refinement
// labeling in canonical.go. The two pick different winning labelings, so
// their Sums differ; what must agree is the partition of any set of graphs
// into Sum classes, and Complete on every graph. encSum, mix64 and
// canonLeafBudget are shared with the live code: they did not change.

// canonStateReference carries one canonicalization: the graph, the best (smallest)
// leaf encoding found so far, the search budget, and scratch buffers reused
// across refinement rounds.
type canonStateReference struct {
	g        *Graph
	best     []byte
	bestPerm []int32
	leaves   int
	aborted  bool
	inv      []int32  // scratch: canonical position → node ID
	sig      []uint64 // scratch: per-node signature hash
	order    []int32  // scratch: nodes sorted by signature
	hs       []uint64 // scratch: incident-edge hashes of one node
	edgeH    []uint64 // per-edge hash of (kind, dist, lat), color-free
}

func canonicalizeReference(g *Graph) Canonical {
	n := len(g.Nodes)
	if n == 0 {
		return Canonical{Sum: encSum(nil), Perm: []int32{}, Complete: true}
	}
	// Seed colors with the opcode: an isomorphism must preserve it, and it
	// splits most DDGs close to discrete before refinement even starts.
	colors := make([]int32, n)
	for v := range g.Nodes {
		colors[v] = int32(g.Nodes[v].Op)
	}
	st := &canonStateReference{
		g:     g,
		inv:   make([]int32, n),
		sig:   make([]uint64, n),
		order: make([]int32, n),
		edgeH: make([]uint64, len(g.Edges)),
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		h := mix64(0x9e3779b97f4a7c15 ^ uint64(e.Kind))
		h = mix64(h ^ uint64(e.Dist))
		st.edgeH[i] = mix64(h ^ uint64(e.Lat))
	}
	st.refine(colors)
	// The exhaustive search has at least (cell size) leaves per
	// non-singleton cell; with many tied nodes it cannot finish within
	// budget, so don't pay for the attempt.
	if deficit := n - countColorsReference(colors); deficit > 4 {
		st.aborted = true
	} else {
		st.search(colors)
	}
	if st.aborted {
		// Too symmetric to exhaust: discard the partial search (its "best
		// so far" depends on exploration order, which follows node
		// numbering) and take the deterministic single-descent labeling.
		st.best, st.bestPerm = nil, nil
		st.linearDescent(colors)
	}
	return Canonical{Sum: encSum(st.best), Perm: st.bestPerm, Complete: !st.aborted}
}

// linearDescent individualizes the first member (by node order) of the
// smallest non-singleton cell and re-refines, repeating until discrete:
// one root-to-leaf path of the search tree. Within an automorphism orbit
// every choice of member leads to the same leaf encoding, so on
// orbit-faithful refinements the result matches across isomorphic graphs
// at a cost of O(depth) refinement passes.
func (st *canonStateReference) linearDescent(colors []int32) {
	n := len(colors)
	counts := make([]int32, n+1)
	for {
		for i := range counts {
			counts[i] = 0
		}
		for _, c := range colors {
			counts[c]++
		}
		target := int32(-1)
		for c := 0; c < n; c++ {
			if counts[c] > 1 {
				target = int32(c)
				break
			}
		}
		if target < 0 {
			st.best = st.encodeLeaf(colors)
			st.bestPerm = append([]int32(nil), colors...)
			return
		}
		for v := 0; v < n; v++ {
			if colors[v] == target {
				colors[v] = int32(n)
				break
			}
		}
		st.refine(colors)
	}
}

// tupleHash folds one incident edge into a 64-bit word: its precomputed
// (kind, dist, lat) hash, the direction, and the neighbor's current color.
func (st *canonStateReference) tupleHash(dir uint64, eid int32, nbrColor int32) uint64 {
	return mix64(st.edgeH[eid] ^ (dir << 32) ^ mix64(uint64(uint32(nbrColor))))
}

// refine runs WL-style color refinement to a fixpoint: each round a node's
// signature hashes its current color with the sorted multiset of
// (direction, kind, dist, lat, neighbor color) over its incident edges;
// nodes are then re-colored by the rank of their signature. Ranks are
// assigned by sorted signature order, which depends only on the color
// partition — never on node numbering — so isomorphic graphs refine
// identically. Colors only split (the old color feeds the signature), so
// the loop terminates in at most n rounds.
func (st *canonStateReference) refine(colors []int32) {
	g := st.g
	n := len(colors)
	sig, order, hs := st.sig, st.order, st.hs
	nColors := countColorsReference(colors)
	for {
		for v := 0; v < n; v++ {
			hs = hs[:0]
			for _, eid := range g.out[v] {
				hs = append(hs, st.tupleHash(0, eid, colors[g.Edges[eid].Dst]))
			}
			for _, eid := range g.in[v] {
				hs = append(hs, st.tupleHash(1, eid, colors[g.Edges[eid].Src]))
			}
			slices.Sort(hs)
			h := mix64(uint64(uint32(colors[v])) ^ 0x2545f4914f6cdd1d)
			for _, x := range hs {
				h = mix64(h ^ x)
			}
			sig[v] = h
		}
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			if sig[a] < sig[b] {
				return -1
			}
			if sig[a] > sig[b] {
				return 1
			}
			return 0
		})
		rank := int32(-1)
		var prev uint64
		for i, v := range order {
			if i == 0 || sig[v] != prev {
				rank++
				prev = sig[v]
			}
			colors[v] = rank
		}
		if int(rank)+1 == nColors {
			st.hs = hs
			return // fixpoint: no class split this round
		}
		nColors = int(rank) + 1
	}
}

// countColors counts distinct values. Colors are small non-negative ints
// (opcode seeds, then ranks < n, plus the fresh individualization color),
// so a dense bitmap beats a map on the refinement hot path.
func countColorsReference(colors []int32) int {
	maxC := int32(0)
	for _, c := range colors {
		if c > maxC {
			maxC = c
		}
	}
	seen := make([]bool, maxC+1)
	n := 0
	for _, c := range colors {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

// search individualizes each member of the smallest non-singleton color
// class and recurses, keeping the lexicographically smallest leaf encoding.
// Every branch applies the same rule (give the chosen node a fresh maximal
// color, re-refine), so the set of leaf encodings — and hence the minimum —
// is an isomorphism invariant as long as the search completes within
// budget.
func (st *canonStateReference) search(colors []int32) {
	if st.aborted && st.best != nil {
		return
	}
	n := len(colors)
	counts := make([]int32, n+1)
	for _, c := range colors {
		counts[c]++
	}
	target := int32(-1)
	for c := 0; c < n; c++ {
		if counts[c] > 1 {
			target = int32(c)
			break
		}
	}
	if target < 0 { // discrete: colors are a permutation — encode the leaf
		st.leaves++
		if st.leaves > canonLeafBudget {
			st.aborted = true
		}
		enc := st.encodeLeaf(colors)
		if st.best == nil || bytes.Compare(enc, st.best) < 0 {
			st.best = enc
			st.bestPerm = append([]int32(nil), colors...)
		}
		return
	}
	child := make([]int32, n)
	for v := 0; v < n; v++ {
		if colors[v] != target {
			continue
		}
		copy(child, colors)
		child[v] = int32(n) // fresh color sorting after all others
		st.refine(child)
		st.search(child)
		if st.aborted && st.best != nil {
			return
		}
	}
}

// encodeLeaf serializes the graph under a discrete coloring (a node
// permutation): node count, edge count, opcodes in canonical order, then
// every edge as (src, dst, kind, dist, lat) in canonical coordinates,
// sorted. The encoding determines the graph up to isomorphism: equal
// encodings ⇒ isomorphic graphs.
func (st *canonStateReference) encodeLeaf(perm []int32) []byte {
	g := st.g
	n := len(perm)
	inv := st.inv
	for v, c := range perm {
		inv[c] = int32(v)
	}
	// Sort edge IDs by their canonical-coordinate record — cheaper than
	// sorting the serialized 40-byte records in place — then serialize in
	// that order. The byte output is identical.
	m := len(g.Edges)
	eidx := make([]int32, m)
	for i := range eidx {
		eidx[i] = int32(i)
	}
	slices.SortFunc(eidx, func(a, b int32) int {
		ea, eb := &g.Edges[a], &g.Edges[b]
		if c := int(perm[ea.Src]) - int(perm[eb.Src]); c != 0 {
			return c
		}
		if c := int(perm[ea.Dst]) - int(perm[eb.Dst]); c != 0 {
			return c
		}
		if c := int(ea.Kind) - int(eb.Kind); c != 0 {
			return c
		}
		if c := ea.Dist - eb.Dist; c != 0 {
			return c
		}
		return ea.Lat - eb.Lat
	})
	const edgeRec = 5 * 8
	buf := make([]byte, 0, 16+8*n+edgeRec*m)
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	for c := 0; c < n; c++ {
		buf = binary.BigEndian.AppendUint64(buf, uint64(g.Nodes[inv[c]].Op))
	}
	for _, i := range eidx {
		e := &g.Edges[i]
		buf = binary.BigEndian.AppendUint64(buf, uint64(uint32(perm[e.Src])))
		buf = binary.BigEndian.AppendUint64(buf, uint64(uint32(perm[e.Dst])))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Kind))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Dist))
		buf = binary.BigEndian.AppendUint64(buf, uint64(e.Lat))
	}
	return buf
}
