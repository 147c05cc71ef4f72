package sched

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// Instance is one schedulable operation: an original node placed in a
// cluster, a replica of it in another cluster, or a copy operation carrying
// a communicated value over a bus.
type Instance struct {
	// Orig is the original DDG node: the executed operation, or for copies
	// the node whose value is transported.
	Orig int
	// Cluster is the executing cluster. For copies it is the home cluster
	// of the value (the bus reads there and broadcasts everywhere).
	Cluster int
	// IsCopy marks bus copy operations.
	IsCopy bool
}

// Op returns the operation kind the instance executes.
func (in Instance) Op(g *ddg.Graph) ddg.OpKind {
	if in.IsCopy {
		return ddg.OpCopy
	}
	return g.Nodes[in.Orig].Op
}

// IEdge is a dependence between instances.
type IEdge struct {
	Src, Dst int32
	Lat      int32
	Dist     int32
	// OrderLat is the latency used for priority ordering. It equals Lat
	// except in zero-bus-latency mode, where copies schedule with Lat 0 but
	// are still ordered as if they had the real bus latency — otherwise
	// consumers can be placed before their copies and close their windows.
	OrderLat int32
	// Data marks register dependences (they define value lifetimes); memory
	// ordering edges have Data false.
	Data bool
}

// IGraph is the expanded, per-instance dependence graph the scheduler works
// on. Adjacency is stored in compressed (CSR) form: the edge ids incident
// to instance i are outIdx[outOff[i]:outOff[i+1]] (and the in* twins), so
// the whole graph is a handful of flat slices a Scratch can recycle.
type IGraph struct {
	// G is the source loop; M the machine.
	G *ddg.Graph
	M machine.Config
	// P is the placement the graph was expanded from.
	P *Placement
	// Inst lists all instances; Edges all dependences.
	Inst  []Instance
	Edges []IEdge
	// CopyIdx[v] is the index of v's copy instance, or -1.
	CopyIdx []int32

	outOff, inOff []int32 // CSR offsets, len NumInstances+1
	outIdx, inIdx []int32 // edge ids grouped by Src / Dst, ascending per node
	instIdx       []int32 // flattened [node*K + cluster] -> instance index or -1
	commLat       int     // effective bus latency used for dependence timing
	busSlots      int     // cycles a copy occupies a bus (real latency)

	// scratch marks a graph whose slices live in a Scratch arena: it is
	// valid only until the arena's next attempt; what is retained is a copy
	// (see accept, detach).
	scratch bool
}

// BuildIGraph expands a placement into an instance graph. When zeroBusLat
// is true, copies still occupy the bus for the machine's real latency (so
// the bus-pressure impact on the II is preserved) but contribute zero
// dependence latency; this is the Fig. 12 upper-bound mode (§5.1).
//
// The returned graph owns its memory. Pipeline-internal callers use
// Scratch.buildIGraph instead, which recycles one arena across attempts;
// callers that go on to check foreign issue times use Prove.
func BuildIGraph(p *Placement, m machine.Config, zeroBusLat bool) (*IGraph, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	return ig.detach(), nil
}

// buildIGraph is BuildIGraph into the arena: the returned graph aliases the
// scratch buffers and is valid until the arena's next use.
func (sc *Scratch) buildIGraph(p *Placement, m machine.Config, zeroBusLat bool) (*IGraph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := p.G
	n := g.NumNodes()
	ig := &sc.ig
	*ig = IGraph{
		G: g, M: m, P: p,
		CopyIdx:  grown(sc.copyIdx, n),
		instIdx:  grown(sc.instIdx, n*p.K),
		commLat:  m.BusLatency,
		busSlots: m.BusLatency,
		scratch:  true,
	}
	if zeroBusLat {
		ig.commLat = 0
	}
	for i := range ig.instIdx {
		ig.instIdx[i] = -1
	}
	sc.inst = sc.inst[:0]
	for v := range g.Nodes {
		ig.CopyIdx[v] = -1
		for rs := p.Replicas[v]; rs != 0; rs = rs.DropLowest() {
			c := rs.Lowest()
			ig.instIdx[v*p.K+c] = int32(len(sc.inst))
			sc.inst = append(sc.inst, Instance{Orig: v, Cluster: c})
		}
	}
	// Copy instances for communicated values, each fed by the home instance.
	for v := range g.Nodes {
		if !p.NeedsComm(v) {
			continue
		}
		ig.CopyIdx[v] = int32(len(sc.inst))
		sc.inst = append(sc.inst, Instance{Orig: v, Cluster: p.Home[v], IsCopy: true})
	}

	sc.edges = sc.edges[:0]
	addEdge := func(src, dst int32, lat, orderLat, dist int, data bool) {
		sc.edges = append(sc.edges, IEdge{Src: src, Dst: dst, Lat: int32(lat), OrderLat: int32(orderLat), Dist: int32(dist), Data: data})
	}

	// Feed each copy from its home instance.
	for v := range g.Nodes {
		if ci := ig.CopyIdx[v]; ci >= 0 {
			home := ig.instIdx[v*p.K+p.Home[v]]
			if home < 0 {
				return nil, fmt.Errorf("sched: communicated node %d lacks home instance", v)
			}
			addEdge(home, ci, g.Nodes[v].Op.Latency(), g.Nodes[v].Op.Latency(), 0, true)
		}
	}

	// Expand source edges.
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind == ddg.EdgeData {
			for rs := p.Replicas[e.Dst]; rs != 0; rs = rs.DropLowest() {
				c := rs.Lowest()
				dst := ig.instIdx[e.Dst*p.K+c]
				if src := ig.instIdx[e.Src*p.K+c]; src >= 0 {
					addEdge(src, dst, e.Lat, e.Lat, e.Dist, true)
				} else {
					ci := ig.CopyIdx[e.Src]
					if ci < 0 {
						return nil, fmt.Errorf("sched: instance of node %d in cluster %d consumes node %d which is neither local nor communicated", e.Dst, c, e.Src)
					}
					addEdge(ci, dst, ig.commLat, m.BusLatency, e.Dist, true)
				}
			}
			continue
		}
		// Memory ordering edges: between every pair of instances.
		for r1 := p.Replicas[e.Src]; r1 != 0; r1 = r1.DropLowest() {
			c1 := r1.Lowest()
			src := ig.instIdx[e.Src*p.K+c1]
			for r2 := p.Replicas[e.Dst]; r2 != 0; r2 = r2.DropLowest() {
				c2 := r2.Lowest()
				if e.Src == e.Dst && c1 == c2 && e.Dist == 0 {
					continue
				}
				addEdge(src, ig.instIdx[e.Dst*p.K+c2], e.Lat, e.Lat, e.Dist, false)
			}
		}
	}
	ig.Inst = sc.inst
	ig.Edges = sc.edges
	sc.copyIdx = ig.CopyIdx
	sc.instIdx = ig.instIdx
	sc.buildCSR(ig)
	return ig, nil
}

// buildCSR computes the adjacency index from ig.Edges. Edge ids stay in
// ascending order within each node's list, matching the order incremental
// appends would have produced.
func (sc *Scratch) buildCSR(ig *IGraph) {
	n := len(ig.Inst)
	sc.outOff = zeroed(sc.outOff, n+1)
	sc.inOff = zeroed(sc.inOff, n+1)
	for i := range ig.Edges {
		sc.outOff[ig.Edges[i].Src+1]++
		sc.inOff[ig.Edges[i].Dst+1]++
	}
	for i := 0; i < n; i++ {
		sc.outOff[i+1] += sc.outOff[i]
		sc.inOff[i+1] += sc.inOff[i]
	}
	ne := len(ig.Edges)
	sc.outIdx = grown(sc.outIdx, ne)
	sc.inIdx = grown(sc.inIdx, ne)
	// Fill positions walk forward; afterwards off[i] has advanced to
	// off[i+1], so recover the starts by shifting back.
	for i := range ig.Edges {
		e := &ig.Edges[i]
		sc.outIdx[sc.outOff[e.Src]] = int32(i)
		sc.outOff[e.Src]++
		sc.inIdx[sc.inOff[e.Dst]] = int32(i)
		sc.inOff[e.Dst]++
	}
	copy(sc.outOff[1:n+1], sc.outOff[:n])
	sc.outOff[0] = 0
	copy(sc.inOff[1:n+1], sc.inOff[:n])
	sc.inOff[0] = 0
	ig.outOff, ig.outIdx = sc.outOff, sc.outIdx
	ig.inOff, ig.inIdx = sc.inOff, sc.inIdx
}

// detach copies a graph that has no schedule out of its scratch arena so it
// can outlive it (a scheduled one leaves through accept); a graph that
// already owns its memory is returned unchanged. The placement is shared,
// not copied.
func (ig *IGraph) detach() *IGraph {
	if !ig.scratch {
		return ig
	}
	out := *ig
	out.ownTables()
	return &out
}

// ownTables replaces the arena's slices with copies at their exact length,
// the six int32 tables out of one backing array, and clears the mark.
func (ig *IGraph) ownTables() {
	ig.scratch = false
	inst := make([]Instance, len(ig.Inst))
	copy(inst, ig.Inst)
	ig.Inst = inst
	edges := make([]IEdge, len(ig.Edges))
	copy(edges, ig.Edges)
	ig.Edges = edges
	tabs := [...]*[]int32{&ig.CopyIdx, &ig.instIdx, &ig.outOff, &ig.inOff, &ig.outIdx, &ig.inIdx}
	total := 0
	for _, t := range tabs {
		total += len(*t)
	}
	back := make([]int32, total)
	for _, t := range tabs {
		n := copy(back, *t)
		*t, back = back[:n:n], back[n:]
	}
}

// InstanceAt returns the instance index of node v in cluster c, or -1.
func (ig *IGraph) InstanceAt(v, c int) int32 { return ig.instIdx[v*ig.P.K+c] }

// NumInstances returns the number of instances.
func (ig *IGraph) NumInstances() int { return len(ig.Inst) }

// NumCopies returns the number of copy instances (communications).
func (ig *IGraph) NumCopies() int {
	n := 0
	for i := range ig.Inst {
		if ig.Inst[i].IsCopy {
			n++
		}
	}
	return n
}

// Latency returns the producer latency of instance i: bus latency for
// copies (possibly zeroed in upper-bound mode), the operation latency
// otherwise.
func (ig *IGraph) Latency(i int32) int {
	if ig.Inst[i].IsCopy {
		return ig.commLat
	}
	return ig.G.Nodes[ig.Inst[i].Orig].Op.Latency()
}

// Out and In return edge-index adjacency for instance i.
func (ig *IGraph) Out(i int32) []int32 { return ig.outIdx[ig.outOff[i]:ig.outOff[i+1]] }

// In returns the incoming edge indices of instance i.
func (ig *IGraph) In(i int32) []int32 { return ig.inIdx[ig.inOff[i]:ig.inOff[i+1]] }

// Name renders a debug name for instance i.
func (ig *IGraph) Name(i int32) string {
	in := ig.Inst[i]
	if in.IsCopy {
		return fmt.Sprintf("copy(%s)", ig.G.NodeName(in.Orig))
	}
	return fmt.Sprintf("%s@c%d", ig.G.NodeName(in.Orig), in.Cluster)
}
