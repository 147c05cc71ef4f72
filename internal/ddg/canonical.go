package ddg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// Canonical is a graph's identity under isomorphism: a fingerprint that is
// equal for any two graphs that differ only in node numbering, edge
// ordering, labels or name, plus the node permutation that witnesses the
// canonical form. The batch-compilation engine keys its semantic cache tier
// on Sum and uses Perm to remap a cached schedule onto an isomorphic graph.
type Canonical struct {
	// Sum is the 64-bit hash of the canonical encoding. The encoding
	// determines the graph up to isomorphism, so a Sum collision between
	// non-isomorphic graphs is a hash collision (2^-64); any consumer that
	// acts on Sum equality must re-verify (the engine's remap path does).
	Sum uint64
	// Perm maps node ID → canonical position: Perm[v] is where node v lands
	// in the canonical ordering. It is a bijection over [0, NumNodes).
	Perm []int32
	// Complete reports that the exhaustive tie-break search finished within
	// its leaf budget, which makes Sum canonical in the strict sense. When
	// false the graph was too symmetric for exhaustion and Sum came from a
	// single deterministic refinement descent instead; that descent picks
	// orbit representatives by node order, so isomorphic graphs agree
	// whenever refinement cells are automorphism orbits (true for twin
	// strands/blocks, the symmetry that actually occurs in loop DDGs) and
	// at worst disagree — a missed cache hit, never a wrong one, because
	// equal Sums always come from equal encodings, which witness
	// isomorphism regardless of how the encoding's labeling was found.
	Complete bool
}

// canonLeafBudget bounds the number of discrete labelings the exhaustive
// tie-break search may encode before canonicalize falls back to the linear
// descent. Refinement alone is discrete for most real DDGs
// (opcode/latency/distance multisets are rich); symmetric graphs — twin
// strands, combine trees — blow up factorially and take the fallback.
const canonLeafBudget = 8

// CanonicalForm returns the graph's canonical identity. The first call
// computes it; the result is memoized, so concurrent callers share one
// computation. The graph's Name and node Labels do not participate.
func (g *Graph) CanonicalForm() Canonical {
	g.canonOnce.Do(func() { g.canon = canonicalize(g) })
	return g.canon
}

// CanonicalFingerprint is shorthand for CanonicalForm().Sum.
func (g *Graph) CanonicalFingerprint() uint64 { return g.CanonicalForm().Sum }

// ShapeHash is a cheap isomorphism-invariant digest: node/edge counts plus
// commutative sums over opcode and edge (srcOp, dstOp, kind, dist, lat)
// tuples. Isomorphic graphs always agree; non-isomorphic graphs rarely
// collide but may. The engine uses it to gate the expensive canonical
// lookup — an O(m) filter that keeps canonicalization entirely off the
// miss path of never-before-seen shapes.
func (g *Graph) ShapeHash() uint64 {
	h := mix64(uint64(len(g.Nodes))<<32 | uint64(uint32(len(g.Edges))))
	for i := range g.Nodes {
		h += mix64(0xa11ce ^ uint64(g.Nodes[i].Op))
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		t := mix64(0xed6e ^ uint64(g.Nodes[e.Src].Op))
		t = mix64(t ^ uint64(g.Nodes[e.Dst].Op))
		t = mix64(t ^ uint64(e.Kind))
		t = mix64(t ^ uint64(e.Dist))
		h += mix64(t ^ uint64(e.Lat))
	}
	return h
}

// canonSearchDeficit is the largest number of tied nodes (nodes minus
// cells after the first refinement) the exhaustive search is attempted on.
// The search has at least (cell size) leaves per non-singleton cell; with
// more tied nodes it cannot finish within budget, so canonicalize does not
// pay for the attempt. Every individualization removes at least one tie, so
// it also bounds the search depth.
const canonSearchDeficit = 4

// canonPart is an ordered partition of the nodes into cells. A cell is
// named by its id and keeps that id for as long as it exists: a split
// leaves the id with one fragment and hands the others the next unused
// ids, so ids are always exactly [0, cells) and a discrete partition's
// node → id map is a bijection onto [0, n) — the labeling encodeLeaf
// serializes. Every cell's stretch of order is kept in ascending node
// order.
type canonPart struct {
	cell  []int32 // node → id of its cell
	order []int32 // nodes grouped by cell: cell c is order[start[c]:][:size[c]]
	start []int32 // cell id → offset of its stretch of order
	size  []int32 // cell id → member count
	cells int     // ids in use
	buf   []int32 // backing array of the four tables
}

// reset sizes the tables for n nodes out of one backing array; contents
// are whatever the last call left there.
func (p *canonPart) reset(n int) {
	p.buf = room(p.buf, 4*n)
	p.cell, p.order = p.buf[:n:n], p.buf[n:2*n:2*n]
	p.start, p.size = p.buf[2*n:3*n:3*n], p.buf[3*n:4*n]
}

// canonNbr is one end of an incident edge as refinement sees it: the node
// at the other end and a hash of the edge's (direction, kind, dist, lat).
type canonNbr struct {
	node int32
	h    uint64
}

// canonState is the working memory of one canonicalization. It is pooled:
// a call on a warm pool allocates nothing but the Perm it returns.
type canonState struct {
	g *Graph
	// adj[off[v]:off[v+1]] are v's incident edges, outgoing and incoming.
	adj []canonNbr
	off []int32
	// parts[d] is the partition at search depth d; the linear descent works
	// on parts[0] in place.
	parts [canonSearchDeficit + 1]canonPart
	// dirty flags the cells whose members' signatures may have changed
	// since the cell was last examined; next lists them, unordered, and cur
	// is the round being worked through. All clear between refinements.
	dirty     []bool
	cur, next []int32
	keys      []uint64 // the examined cell's (signature, node) words
	shift     uint     // bits of a keys word that hold the node
	edges     []uint64 // encodeLeaf: one node's (canonical dst, edge id) words
	// enc is the leaf being encoded, best the smallest seen so far (swapped,
	// never copied) and bestPerm its labeling.
	enc, best []byte
	bestPerm  []int32
	leaves    int
	aborted   bool
}

var canonPool = sync.Pool{New: func() any { return new(canonState) }}

// room returns buf at length n, its contents unspecified except that a
// fresh array is zero. It grows to a power of two, so a pooled state — the
// GC empties pools — is back at a workload's high-water mark after a few
// graphs rather than regrowing for every new largest one.
func room[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = make([]T, max(64, 1<<bits.Len(uint(n-1))))
	}
	return buf[:n]
}

func canonicalize(g *Graph) Canonical {
	n := len(g.Nodes)
	if n == 0 {
		return Canonical{Sum: encSum(nil), Perm: []int32{}, Complete: true}
	}
	st := canonPool.Get().(*canonState)
	st.init(g)
	root := &st.parts[0]
	st.refine(root)
	if deficit := n - root.cells; deficit > canonSearchDeficit {
		st.aborted = true
	} else {
		st.search(0)
	}
	perm := st.bestPerm
	if st.aborted {
		// Too symmetric to exhaust: discard the partial search (its "best
		// so far" depends on exploration order, which follows node
		// numbering) and take the deterministic single-descent labeling.
		st.linearDescent(root)
		st.encodeLeaf(root)
		st.best, st.enc = st.enc, st.best
		perm = root.cell
	}
	c := Canonical{Sum: encSum(st.best), Perm: slices.Clone(perm), Complete: !st.aborted}
	st.g = nil // the pool must not keep the graph alive
	canonPool.Put(st)
	return c
}

// init points the state at g: the flattened adjacency, and parts[0] holding
// the opcode partition — an isomorphism must preserve opcodes, and they
// split most DDGs close to discrete before refinement even starts — with
// every non-singleton cell due for examination.
func (st *canonState) init(g *Graph) {
	n := len(g.Nodes)
	st.g = g
	st.leaves, st.aborted = 0, false
	st.best = st.best[:0]
	st.shift = uint(bits.Len(uint(n - 1)))
	st.dirty = room(st.dirty, n)
	st.keys = room(st.keys, n)
	st.bestPerm = room(st.bestPerm, n)

	st.off = room(st.off, n+1)
	st.adj = room(st.adj, 2*len(g.Edges))
	at := int32(0)
	for v := range g.Nodes {
		st.off[v] = at
		for _, eid := range g.out[v] {
			e := &g.Edges[eid]
			st.adj[at] = canonNbr{node: int32(e.Dst), h: edgeHash(e)}
			at++
		}
		for _, eid := range g.in[v] {
			e := &g.Edges[eid]
			st.adj[at] = canonNbr{node: int32(e.Src), h: ^edgeHash(e)}
			at++
		}
	}
	st.off[n] = at

	p := &st.parts[0]
	p.reset(n)
	p.cells = 1
	p.start[0], p.size[0] = 0, int32(n)
	for v := range g.Nodes {
		p.cell[v], p.order[v] = 0, int32(v)
		st.keys[v] = uint64(g.Nodes[v].Op)<<st.shift | uint64(v)
	}
	st.cut(p, 0)
	for c := 0; c < p.cells; c++ {
		st.mark(p, int32(c))
	}
}

// edgeHash folds an edge's (kind, dist, lat) into one word. Distinct
// triples of any plausible magnitude stay distinct before mix64; a
// collision could only merge refinement classes (see mix64).
func edgeHash(e *Edge) uint64 {
	return mix64(uint64(e.Kind) ^ uint64(e.Dist)*0x9e3779b97f4a7c15 ^ uint64(e.Lat)*0xc2b2ae3d27d4eb4f)
}

// mark queues cell c for examination unless it is a singleton (nothing to
// split) or queued already.
func (st *canonState) mark(p *canonPart, c int32) {
	if p.size[c] > 1 && !st.dirty[c] {
		st.dirty[c] = true
		st.next = append(st.next, c)
	}
}

// markNeighbours queues the cells that may have stopped being uniform
// because the nodes vs changed cell: the cells of their neighbours.
func (st *canonState) markNeighbours(p *canonPart, vs []int32) {
	for _, v := range vs {
		for _, nb := range st.adj[st.off[v]:st.off[v+1]] {
			st.mark(p, p.cell[nb.node])
		}
	}
}

// refine splits cells until the partition is equitable: any two nodes of a
// cell have the same multiset of (direction, kind, dist, lat, neighbour's
// cell) over their incident edges. Only cells that a neighbour's change of
// cell could have disturbed are examined. Work proceeds in rounds; a round
// examines the cells queued when it began in ascending id, and cells queued
// meanwhile wait for the next. That order is the point: WHICH cells are
// queued depends only on the partition, but the order nodes queued them in
// follows node numbering, and since fresh ids are handed out as cells are
// examined, a first-come queue would let numbering leak into the ids.
// Ascending ids and, inside a cell, ascending signatures (cut) make every
// id a function of the graph's structure alone, so isomorphic graphs
// refine identically.
func (st *canonState) refine(p *canonPart) {
	for len(st.next) > 0 {
		st.cur, st.next = st.next, st.cur[:0]
		slices.Sort(st.cur)
		for _, c := range st.cur {
			st.dirty[c] = false
			st.examine(p, c)
		}
	}
}

// examine computes the signature of every member of cell c — the sum, so
// order-free, of one hash per incident edge over the edge's constants and
// the id of the neighbour's cell; never a node index — and splits the cell
// where signatures differ.
func (st *canonState) examine(p *canonPart, c int32) {
	members := p.order[p.start[c]:][:p.size[c]]
	var differ uint64
	for i, v := range members {
		var sig uint64
		for _, nb := range st.adj[st.off[v]:st.off[v+1]] {
			sig += mix64(nb.h ^ uint64(p.cell[nb.node])*0xd6e8feb86659fd93)
		}
		st.keys[i] = sig<<st.shift | uint64(v)
		differ |= (st.keys[i] ^ st.keys[0]) >> st.shift
	}
	if differ != 0 {
		st.cut(p, c)
	}
}

// cut splits cell c by the (signature, node) words its members left in
// keys: sorted, each run of equal signatures is a fragment. The first
// fragment keeps the id, the others take fresh ids in signature order, and
// the neighbours of every node whose cell changed are queued.
func (st *canonState) cut(p *canonPart, c int32) {
	at, size := p.start[c], p.size[c]
	keys := st.keys[:size]
	slices.Sort(keys)
	members := p.order[at:][:size]
	id, from := c, int32(0)
	for i, k := range keys {
		if i > 0 && k>>st.shift != keys[i-1]>>st.shift {
			p.size[id] = int32(i) - from
			id, from = int32(p.cells), int32(i)
			p.cells++
			p.start[id] = at + from
		}
		v := int32(k & (1<<st.shift - 1))
		members[i], p.cell[v] = v, id
	}
	p.size[id] = size - from
	st.markNeighbours(p, members[p.size[c]:])
}

// individualize moves the i-th member of cell c into a fresh singleton
// cell, the rest keeping the id.
func (st *canonState) individualize(p *canonPart, c int32, i int) {
	members := p.order[p.start[c]:][:p.size[c]]
	v := members[i]
	copy(members[1:], members[:i])
	members[0] = v
	id := int32(p.cells)
	p.cells++
	p.cell[v] = id
	p.start[id], p.size[id] = p.start[c], 1
	p.start[c]++
	p.size[c]--
	st.markNeighbours(p, members[:1])
}

// target returns the lowest non-singleton cell id at or above from; the
// partition must not be discrete.
func (p *canonPart) target(from int32) int32 {
	for p.size[from] == 1 {
		from++
	}
	return from
}

// linearDescent individualizes the first member (by node order) of the
// lowest non-singleton cell and re-refines, repeating until discrete: one
// root-to-leaf path of the search tree. Within an automorphism orbit every
// choice of member leads to the same leaf encoding, so on orbit-faithful
// refinements the result matches across isomorphic graphs, and each step
// costs only the cells the individualization disturbs.
func (st *canonState) linearDescent(p *canonPart) {
	// Cells only split and fresh ids are higher, so the target never
	// moves down.
	c := int32(0)
	for p.cells < len(p.cell) {
		c = p.target(c)
		st.individualize(p, c, 0)
		st.refine(p)
	}
}

// search individualizes each member of the lowest non-singleton cell of
// parts[depth] in turn and recurses, keeping the lexicographically
// smallest leaf encoding. Every branch applies the same rule (move the
// chosen node to a fresh cell, re-refine), so the set of leaf encodings —
// and hence the minimum — is an isomorphism invariant as long as the
// search completes within budget.
func (st *canonState) search(depth int) {
	p := &st.parts[depth]
	n := len(p.cell)
	if p.cells == n { // discrete: the cell ids are a permutation — encode the leaf
		st.leaves++
		if st.leaves > canonLeafBudget {
			st.aborted = true
			return
		}
		st.encodeLeaf(p)
		if len(st.best) == 0 || bytes.Compare(st.enc, st.best) < 0 {
			st.best, st.enc = st.enc, st.best
			copy(st.bestPerm, p.cell)
		}
		return
	}
	c := p.target(0)
	child := &st.parts[depth+1]
	child.reset(n)
	for i := 0; i < int(p.size[c]) && !st.aborted; i++ {
		copy(child.buf, p.buf)
		child.cells = p.cells
		st.individualize(child, c, i)
		st.refine(child)
		st.search(depth + 1)
	}
}

// encodeLeaf serializes the graph under a discrete partition (a node
// permutation) into enc: node count, edge count, opcodes in canonical
// order, then every edge as (src, dst, kind, dist, lat) in canonical
// coordinates, sorted. The encoding determines the graph up to
// isomorphism: equal encodings ⇒ isomorphic graphs.
func (st *canonState) encodeLeaf(p *canonPart) {
	g := st.g
	n, m := len(g.Nodes), len(g.Edges)
	const edgeRec = 5 * 8
	buf := room(st.enc, 16+8*n+edgeRec*m)[:0]
	buf = binary.BigEndian.AppendUint64(buf, uint64(n))
	buf = binary.BigEndian.AppendUint64(buf, uint64(m))
	for c := 0; c < n; c++ {
		buf = binary.BigEndian.AppendUint64(buf, uint64(g.Nodes[p.order[p.start[c]]].Op))
	}
	// Walking sources in canonical order leaves only each node's own
	// outgoing edges to sort: by canonical destination as packed words,
	// then parallel edges — equal words but for the edge id — among
	// themselves by (kind, dist, lat).
	for c := 0; c < n; c++ {
		keys := st.edges[:0]
		for _, eid := range g.out[p.order[p.start[c]]] {
			keys = append(keys, uint64(p.cell[g.Edges[eid].Dst])<<32|uint64(eid))
		}
		st.edges = keys
		slices.Sort(keys)
		for i := 1; i < len(keys); i++ {
			for j := i; j > 0 && keys[j]>>32 == keys[j-1]>>32 &&
				edgeBefore(&g.Edges[uint32(keys[j])], &g.Edges[uint32(keys[j-1])]); j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		for _, k := range keys {
			e := &g.Edges[uint32(k)]
			buf = binary.BigEndian.AppendUint64(buf, uint64(c))
			buf = binary.BigEndian.AppendUint64(buf, k>>32)
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Kind))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Dist))
			buf = binary.BigEndian.AppendUint64(buf, uint64(e.Lat))
		}
	}
	st.enc = buf
}

// edgeBefore orders parallel edges by (kind, dist, lat).
func edgeBefore(a, b *Edge) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.Lat < b.Lat
}

// encSum hashes a leaf encoding word-at-a-time (encodings are all 8-byte
// records, so there is never a tail): an FNV-style seed chained through
// mix64. Only ever compared against other encSum values, so the exact
// function is free to choose for speed — but it IS part of the persisted
// cache identity (JobKey embeds CanonicalFingerprint), so changing it
// requires a jobKeyVersion bump like any other key-format change.
func encSum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for ; len(b) >= 8; b = b[8:] {
		h = mix64(h ^ binary.BigEndian.Uint64(b))
	}
	return mix64(h)
}

// mix64 is a splitmix64-style avalanche: cheap, deterministic across
// platforms, and good enough that signature collisions are vanishingly
// rare. A collision can only merge refinement classes — identically for
// isomorphic graphs — and the final leaf encoding uses the exact structure,
// so collisions can never produce a wrong canonical form, only a coarser
// refinement.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Permute returns a clone of g that is isomorphic but concretely different:
// node v of g becomes node nodePerm[v], edges are emitted in edgePerm
// order, the graph is renamed, and node labels are rewritten to positional
// names. nodePerm must be a bijection over nodes and edgePerm over edges.
func Permute(g *Graph, name string, nodePerm, edgePerm []int) (*Graph, error) {
	n, m := g.NumNodes(), g.NumEdges()
	if err := checkPerm(nodePerm, n, "node"); err != nil {
		return nil, err
	}
	if err := checkPerm(edgePerm, m, "edge"); err != nil {
		return nil, err
	}
	inv := make([]int, n)
	for v, nv := range nodePerm {
		inv[nv] = v
	}
	b := NewBuilder(name)
	for nv := 0; nv < n; nv++ {
		b.Node(fmt.Sprintf("p%d", nv), g.Nodes[inv[nv]].Op)
	}
	for _, eid := range edgePerm {
		e := &g.Edges[eid]
		src, dst := nodePerm[e.Src], nodePerm[e.Dst]
		if e.Kind == EdgeMem {
			b.MemEdgeLat(src, dst, e.Dist, e.Lat)
		} else {
			b.EdgeLat(src, dst, e.Dist, e.Lat)
		}
	}
	return b.Build()
}

// PermuteRandom is Permute with a seeded random node and edge permutation:
// the deterministic way to manufacture a duplicated-shape corpus (loopgen
// -permute, the semantic-cache benchmarks and the CI smoke test all use
// it).
func PermuteRandom(g *Graph, name string, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	np := rng.Perm(g.NumNodes())
	ep := rng.Perm(g.NumEdges())
	ng, err := Permute(g, name, np, ep)
	if err != nil {
		panic(err) // permutations are valid by construction
	}
	return ng
}

func checkPerm(p []int, n int, what string) error {
	if len(p) != n {
		return fmt.Errorf("ddg: %s permutation has length %d, want %d", what, len(p), n)
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("ddg: invalid %s permutation", what)
		}
		seen[v] = true
	}
	return nil
}
