package ddg

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// EdgeKind distinguishes register data dependences from memory ordering
// dependences.
type EdgeKind int

const (
	// EdgeData is a register data dependence: the destination consumes the
	// value produced by the source. Data edges that cross clusters require
	// an inter-cluster communication (unless removed by replication).
	EdgeData EdgeKind = iota
	// EdgeMem is a memory ordering dependence (store→load, store→store,
	// load→store). The memory hierarchy is centralized, so memory edges
	// never require communications regardless of cluster placement.
	EdgeMem
)

// String returns "data" or "mem".
func (k EdgeKind) String() string {
	if k == EdgeData {
		return "data"
	}
	return "mem"
}

// Node is one operation of the loop body.
type Node struct {
	// ID is the node's index in Graph.Nodes.
	ID int
	// Op is the operation kind.
	Op OpKind
	// Label is an optional human-readable name (unique within the graph
	// when present).
	Label string
}

// Edge is a dependence between two operations.
type Edge struct {
	// ID is the edge's index in Graph.Edges.
	ID int
	// Src and Dst are node IDs.
	Src, Dst int
	// Dist is the loop-carried distance in iterations; 0 means the
	// dependence is within one iteration.
	Dist int
	// Kind distinguishes data from memory dependences.
	Kind EdgeKind
	// Lat is the dependence latency in cycles: the destination may issue
	// Lat cycles after the source (plus Dist·II in a modulo schedule).
	Lat int
}

// Graph is an immutable data dependence graph for one loop body. Build one
// with a Builder; the zero Graph is empty.
type Graph struct {
	// Name identifies the loop (for reports).
	Name string
	// Nodes is indexed by node ID.
	Nodes []Node
	// Edges is indexed by edge ID.
	Edges []Edge

	out [][]int32 // per node, outgoing edge IDs
	in  [][]int32 // per node, incoming edge IDs

	// Canonical identity, computed lazily by CanonicalForm. Guarded by
	// canonOnce, which also makes the Graph no-copy (go vet copylocks);
	// graphs are always handled by pointer. permRoom is where the labeling
	// writes its Perm: reserved when the graph is built, parsed or cloned,
	// so labeling a graph allocates nothing.
	canonOnce sync.Once
	canon     Canonical
	permRoom  []int32

	// presented marks a Presentation's graph (see Presented), and epoch
	// numbers the loops it has held (see Epoch).
	presented bool
	epoch     uint64
}

// Presented reports whether g is a Presentation's graph: a loop already in
// its topological-canonical numbering.
func (g *Graph) Presented() bool { return g.presented }

// Epoch tells apart the loops one graph object has held: 0 for a graph
// that was built, parsed or cloned (it never changes), and a number no
// other loop had for each loop a Presentation renumbers into its graph. A
// cache keyed on a graph pointer compares the epoch too.
func (g *Graph) Epoch() uint64 { return g.epoch }

// NumNodes returns the number of operations in the graph.
func (g *Graph) NumNodes() int { return len(g.Nodes) }

// NumEdges returns the number of dependences in the graph.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Out returns the IDs of the edges leaving node v. The returned slice must
// not be modified.
func (g *Graph) Out(v int) []int32 { return g.out[v] }

// In returns the IDs of the edges entering node v. The returned slice must
// not be modified.
func (g *Graph) In(v int) []int32 { return g.in[v] }

// NodeName returns the label of node v, or a synthetic "n<ID>" name.
func (g *Graph) NodeName(v int) string {
	if l := g.Nodes[v].Label; l != "" {
		return l
	}
	return "n" + strconv.Itoa(v)
}

// DataSuccs appends to dst the IDs of nodes that consume v's value through
// intra-iteration or loop-carried data edges, and returns dst. A node may
// appear more than once if it consumes v through multiple edges.
func (g *Graph) DataSuccs(v int, dst []int) []int {
	for _, eid := range g.out[v] {
		if e := &g.Edges[eid]; e.Kind == EdgeData {
			dst = append(dst, e.Dst)
		}
	}
	return dst
}

// DataPreds appends to dst the IDs of nodes whose values v consumes, and
// returns dst.
func (g *Graph) DataPreds(v int, dst []int) []int {
	for _, eid := range g.in[v] {
		if e := &g.Edges[eid]; e.Kind == EdgeData {
			dst = append(dst, e.Src)
		}
	}
	return dst
}

// CountClass returns the number of nodes of each operation class.
func (g *Graph) CountClass() [NumClasses]int {
	var n [NumClasses]int
	for i := range g.Nodes {
		n[g.Nodes[i].Op.Class()]++
	}
	return n
}

// String returns a compact one-line summary of the graph.
func (g *Graph) String() string {
	c := g.CountClass()
	return fmt.Sprintf("%s{nodes=%d edges=%d int=%d fp=%d mem=%d}",
		g.Name, len(g.Nodes), len(g.Edges), c[ClassInt], c[ClassFP], c[ClassMem])
}

// Validate checks structural invariants: edge endpoints in range, no
// self-edges with distance 0, non-negative distances, positive latencies on
// data edges from non-zero-latency producers, and unique labels. A Graph
// produced by Builder.Build is always valid; Validate exists for graphs
// decoded from text.
func (g *Graph) Validate() error {
	return g.validate(make(map[string]int, len(g.Nodes)), &OrderScratch{})
}

// validate is Validate with the caller's memory: sc is the cycle check's,
// which the text parser keeps across the loops of a stream. labels is
// either empty or already maps every label of g to the first node carrying
// it (the text parser passes the label index it built); a label on two
// nodes is reported in both cases.
func (g *Graph) validate(labels map[string]int, sc *OrderScratch) error {
	var problems []string
	for i := range g.Nodes {
		n := &g.Nodes[i]
		if n.ID != i {
			problems = append(problems, fmt.Sprintf("node %d has ID %d", i, n.ID))
		}
		if !n.Op.Valid() {
			problems = append(problems, fmt.Sprintf("node %d has invalid op %v", i, n.Op))
		}
		if n.Label != "" {
			if prev, seen := labels[n.Label]; !seen {
				labels[n.Label] = i
			} else if prev != i {
				problems = append(problems, fmt.Sprintf("label %q used by nodes %d and %d", n.Label, prev, i))
				labels[n.Label] = i
			}
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.ID != i {
			problems = append(problems, fmt.Sprintf("edge %d has ID %d", i, e.ID))
		}
		if e.Src < 0 || e.Src >= len(g.Nodes) || e.Dst < 0 || e.Dst >= len(g.Nodes) {
			problems = append(problems, fmt.Sprintf("edge %d endpoints (%d,%d) out of range", i, e.Src, e.Dst))
			continue
		}
		if e.Dist < 0 {
			problems = append(problems, fmt.Sprintf("edge %d has negative distance %d", i, e.Dist))
		}
		if e.Src == e.Dst && e.Dist == 0 {
			problems = append(problems, fmt.Sprintf("edge %d is a zero-distance self-loop on node %d", i, e.Src))
		}
		if e.Lat < 0 {
			problems = append(problems, fmt.Sprintf("edge %d has negative latency %d", i, e.Lat))
		}
		if e.Kind == EdgeData && g.Nodes[e.Src].Op == OpStore {
			problems = append(problems, fmt.Sprintf("edge %d: store node %d produces no register value", i, e.Src))
		}
	}
	if v := g.zeroDistanceCycle(sc); v >= 0 {
		problems = append(problems, fmt.Sprintf("zero-distance cycle through node %d", v))
	}
	if len(problems) == 0 {
		return nil
	}
	return fmt.Errorf("ddg: invalid graph %s: %s", g.Name, strings.Join(problems, "; "))
}

// zeroDistanceCycle returns a node on a cycle of distance-0 edges (a
// cycle with total distance 0 is not executable), or -1 if there is none.
func (g *Graph) zeroDistanceCycle(sc *OrderScratch) int {
	order, sorted := g.TopoOrder(sc)
	if sorted == len(order) {
		return -1
	}
	// A node TopoOrder could not free still has a distance-0 predecessor it
	// could not free (indeg > 0). Walking such predecessors back from one
	// of them comes round to a node already passed (indeg −1): that node is
	// on a cycle.
	indeg := sc.indeg
	v := order[sorted]
	for {
		indeg[v] = -1
		for _, e := range g.in[v] {
			if x := &g.Edges[e]; x.Dist == 0 && indeg[x.Src] != 0 {
				v = int32(x.Src)
				break
			}
		}
		if indeg[v] < 0 {
			return int(v)
		}
	}
}

// Clone returns a deep copy of the graph, its adjacency in one array
// like a parsed graph's.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		Name:  g.Name,
		Nodes: append([]Node(nil), g.Nodes...),
		Edges: append([]Edge(nil), g.Edges...),
	}
	n := len(g.Nodes)
	degree := make([]int32, 2*n)
	for v := range n {
		degree[2*v], degree[2*v+1] = int32(len(g.out[v])), int32(len(g.in[v]))
	}
	ng.buildAdjacency(degree)
	return ng
}
