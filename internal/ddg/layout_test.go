package ddg

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// TestBuiltGraphLayout pins the one layout every graph is made in, here
// for a Builder's: Nodes and Edges at their exact length, each node's out
// and in lists in edge-ID order, packed in node order into one edge-id
// array whose tail is the labeling's room, a graph its own Clone equals,
// and a first labeling that allocates nothing.
func TestBuiltGraphLayout(t *testing.T) {
	build := func() []*Graph {
		gs := []*Graph{ringGraph("ring", 12, 5)}
		for seed := int64(1); seed <= 8; seed++ {
			gs = append(gs, randomValidGraph(rand.New(rand.NewSource(seed)), 3+int(seed)*7))
		}
		return gs
	}
	for _, g := range build() {
		if cap(g.Nodes) != len(g.Nodes) || cap(g.Edges) != len(g.Edges) {
			t.Errorf("%v: Nodes cap %d len %d, Edges cap %d len %d; want exact", g, cap(g.Nodes), len(g.Nodes), cap(g.Edges), len(g.Edges))
		}
		checkOneIDArray(t, g)
		// Each list holds its node's edges in ID order, as appending them
		// one by one did.
		for v := range g.Nodes {
			var out, in []int32
			for i, e := range g.Edges {
				if e.Src == v {
					out = append(out, int32(i))
				}
				if e.Dst == v {
					in = append(in, int32(i))
				}
			}
			if !slices.Equal(g.Out(v), out) || !slices.Equal(g.In(v), in) {
				t.Fatalf("%v: node %d lists out %v in %v, want %v %v", g, v, g.Out(v), g.In(v), out, in)
			}
		}
		c := g.Clone()
		checkOneIDArray(t, c)
		if !sameStructure(g, c) {
			t.Errorf("%v: differs from its Clone", g)
		}
	}
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	// The pooled labeling state grows to the largest graph first; then each
	// run labels a graph no run labeled before, the warm-up run the first.
	for _, g := range build() {
		g.CanonicalForm()
	}
	gs := build()
	i := 0
	if n := testing.AllocsPerRun(len(gs)-1, func() {
		gs[i].CanonicalForm()
		i++
	}); n != 0 {
		t.Errorf("labeling a built graph allocates %v objects, want 0", n)
	}
}

// checkOneIDArray checks that g's out and in lists are consecutive windows
// of one array, out(0) in(0) out(1) in(1) …, capacity clipped to length,
// and that permRoom is the array's last len(Nodes) entries.
func checkOneIDArray(t *testing.T, g *Graph) {
	t.Helper()
	n, m := len(g.Nodes), len(g.Edges)
	if len(g.permRoom) != n || cap(g.permRoom) != n {
		t.Fatalf("%v: permRoom len %d cap %d, want %d", g, len(g.permRoom), cap(g.permRoom), n)
	}
	base := unsafe.Add(unsafe.Pointer(unsafe.SliceData(g.permRoom)), -4*2*m)
	off := 0
	for v := range n {
		for _, l := range [][]int32{g.out[v], g.in[v]} {
			if cap(l) != len(l) {
				t.Fatalf("%v: node %d has a list of len %d cap %d", g, v, len(l), cap(l))
			}
			if len(l) > 0 && unsafe.Pointer(unsafe.SliceData(l)) != unsafe.Add(base, 4*off) {
				t.Fatalf("%v: node %d's list is not at offset %d of the edge-id array", g, v, off)
			}
			off += len(l)
		}
	}
	if off != 2*m {
		t.Fatalf("%v: lists hold %d ids, want %d", g, off, 2*m)
	}
}

// sameStructure compares everything a graph holds but its memory.
func sameStructure(a, b *Graph) bool {
	if a.Name != b.Name || !slices.Equal(a.Nodes, b.Nodes) || !slices.Equal(a.Edges, b.Edges) ||
		len(a.out) != len(b.out) || len(a.in) != len(b.in) || len(a.permRoom) != len(b.permRoom) {
		return false
	}
	for v := range a.out {
		if !slices.Equal(a.out[v], b.out[v]) || !slices.Equal(a.in[v], b.in[v]) {
			return false
		}
	}
	return true
}
