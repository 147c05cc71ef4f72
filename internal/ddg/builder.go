package ddg

import "fmt"

// Builder constructs a Graph incrementally. Builders are not safe for
// concurrent use. The zero Builder is not usable; call NewBuilder.
type Builder struct {
	g      *Graph
	degree []int32         // per node, out- and in-degree, interleaved
	labels map[string]bool // the labels given so far
	errs   []error
}

// NewBuilder returns a Builder for a loop with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{g: &Graph{Name: name}, labels: make(map[string]bool)}
}

// Node adds an operation with a label and returns its ID. The label may be
// empty; non-empty labels must be unique.
func (b *Builder) Node(label string, op OpKind) int {
	id := len(b.g.Nodes)
	if label != "" {
		if b.labels[label] {
			b.errs = append(b.errs, fmt.Errorf("duplicate node label %q", label))
		}
		b.labels[label] = true
	}
	b.g.Nodes = append(b.g.Nodes, Node{ID: id, Op: op, Label: label})
	b.degree = append(b.degree, 0, 0)
	return id
}

// Edge adds a register data dependence src→dst with loop-carried distance
// dist. The latency is the producer's operation latency.
func (b *Builder) Edge(src, dst, dist int) {
	b.addEdge(src, dst, dist, EdgeData, -1)
}

// MemEdge adds a memory ordering dependence src→dst with distance dist and
// latency 1 (the consumer must issue strictly after the producer issues).
func (b *Builder) MemEdge(src, dst, dist int) {
	b.addEdge(src, dst, dist, EdgeMem, 1)
}

// EdgeLat adds a data dependence with an explicit latency, for tests that
// need non-standard latencies.
func (b *Builder) EdgeLat(src, dst, dist, lat int) {
	b.addEdge(src, dst, dist, EdgeData, lat)
}

// MemEdgeLat adds a memory ordering dependence with an explicit latency
// (MemEdge uses latency 1).
func (b *Builder) MemEdgeLat(src, dst, dist, lat int) {
	b.addEdge(src, dst, dist, EdgeMem, lat)
}

func (b *Builder) addEdge(src, dst, dist int, kind EdgeKind, lat int) {
	if src < 0 || src >= len(b.g.Nodes) || dst < 0 || dst >= len(b.g.Nodes) {
		b.errs = append(b.errs, fmt.Errorf("edge (%d,%d) references unknown node", src, dst))
		return
	}
	if lat < 0 {
		lat = b.g.Nodes[src].Op.Latency()
	}
	id := len(b.g.Edges)
	b.g.Edges = append(b.g.Edges, Edge{ID: id, Src: src, Dst: dst, Dist: dist, Kind: kind, Lat: lat})
	b.degree[2*src]++
	b.degree[2*dst+1]++
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.g.Nodes) }

// Op returns the operation of node id.
func (b *Builder) Op(id int) OpKind { return b.g.Nodes[id].Op }

// Graph exposes the graph under construction for read-only inspection
// (node counts, adjacency); it has not been validated yet. Each call lays
// its adjacency out anew.
func (b *Builder) Graph() *Graph {
	b.g.buildAdjacency(b.degree)
	return b.g
}

// Build validates and returns the graph, laid out as a parsed or cloned
// one: Nodes and Edges at their exact length, and the adjacency and the
// labeling's room in one edge-id array. The Builder must not be used
// afterwards.
func (b *Builder) Build() (*Graph, error) {
	if len(b.errs) > 0 {
		return nil, fmt.Errorf("ddg: builder for %s: %w", b.g.Name, b.errs[0])
	}
	g := b.Graph()
	g.Nodes, g.Edges = exact(g.Nodes), exact(g.Edges)
	if err := g.Validate(); err != nil {
		return nil, err
	}
	b.g = nil
	return g, nil
}

// exact returns s in an array of its own length: the Builder's appends
// leave up to as much room again.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// MustBuild is Build but panics on error; for tests and generators whose
// inputs are known valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}
