package ddg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// permutedClone returns a random isomorphic clone of g: renamed, relabeled,
// nodes renumbered, edges reordered.
func permutedClone(t testing.TB, g *Graph, rng *rand.Rand) *Graph {
	t.Helper()
	ng, err := Permute(g, g.Name+"#p", rng.Perm(g.NumNodes()), rng.Perm(g.NumEdges()))
	if err != nil {
		t.Fatalf("Permute: %v", err)
	}
	return ng
}

func TestCanonicalInvariantUnderPermutation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomValidGraph(rng, 2+int(nRaw%40))
		c := g.CanonicalForm()
		for trial := 0; trial < 3; trial++ {
			h := permutedClone(t, g, rng)
			hc := h.CanonicalForm()
			if hc.Sum != c.Sum || hc.Complete != c.Complete {
				t.Logf("sum %016x vs %016x (complete %v vs %v)", c.Sum, hc.Sum, c.Complete, hc.Complete)
				return false
			}
		}
		// The exact fingerprint, by contrast, must see the renaming.
		if h := permutedClone(t, g, rng); h.Fingerprint() == g.Fingerprint() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalPermIsIsomorphism checks that composing the two canonical
// permutations yields a genuine isomorphism between a graph and its clone —
// the property the engine's schedule remapping relies on.
func TestCanonicalPermIsIsomorphism(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomValidGraph(rng, 2+int(nRaw%40))
		h := permutedClone(t, g, rng)
		cg, ch := g.CanonicalForm(), h.CanonicalForm()
		if cg.Sum != ch.Sum {
			return false
		}
		if err := CheckIsomorphism(g, h, cg.Perm, ch.Perm); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalDistinguishesMutants: any semantic change to the graph —
// opcode, latency, distance, kind, edge direction — must move the
// canonical fingerprint, even though renaming and reordering must not.
func TestCanonicalDistinguishesMutants(t *testing.T) {
	base := func() *Builder {
		b := NewBuilder("mutant")
		l := b.Node("l", OpLoad)
		a := b.Node("a", OpFAdd)
		m := b.Node("m", OpFMul)
		s := b.Node("s", OpStore)
		b.Edge(l, a, 0)
		b.Edge(a, m, 1)
		b.Edge(m, a, 1)
		b.EdgeLat(a, s, 0, 3)
		b.MemEdge(s, l, 1)
		return b
	}
	ref := base().MustBuild().CanonicalFingerprint()

	mutants := map[string]*Graph{}
	{ // opcode tweak
		b := base()
		b.Graph().Nodes[1].Op = OpFMul
		mutants["opcode"] = b.MustBuild()
	}
	{ // latency tweak
		b := base()
		b.Graph().Edges[3].Lat = 4
		mutants["latency"] = b.MustBuild()
	}
	{ // distance tweak
		b := base()
		b.Graph().Edges[1].Dist = 2
		mutants["distance"] = b.MustBuild()
	}
	{ // kind tweak (data edge into the store becomes a mem edge)
		b := base()
		b.Graph().Edges[3].Kind = EdgeMem
		mutants["kind"] = b.MustBuild()
	}
	{ // edge flip (reverse the carried pair into a parallel edge)
		b := NewBuilder("mutant")
		l := b.Node("l", OpLoad)
		a := b.Node("a", OpFAdd)
		m := b.Node("m", OpFMul)
		s := b.Node("s", OpStore)
		b.Edge(l, a, 0)
		b.Edge(a, m, 1)
		b.Edge(a, m, 1) // was m→a
		b.EdgeLat(a, s, 0, 3)
		b.MemEdge(s, l, 1)
		g := b.Graph()
		g.Edges[2].Lat = OpFMul.Latency() // keep the flipped edge's latency
		mutants["edge-flip"] = b.MustBuild()
	}
	for name, g := range mutants {
		if g.CanonicalFingerprint() == ref {
			t.Errorf("%s mutant kept the canonical fingerprint %016x", name, ref)
		}
	}
	// Renaming alone must NOT move it.
	renamed := base().MustBuild()
	renamed.Name = "other-name"
	if renamed.CanonicalFingerprint() != ref {
		t.Errorf("renaming changed the canonical fingerprint")
	}
}

// TestCanonicalRegularRing exercises the tie-break search: a ring of
// identical operations gives WL refinement nothing to split, so the search
// must individualize its way to a discrete coloring — and still agree
// across rotations.
func TestCanonicalRegularRing(t *testing.T) {
	ring := ringGraph
	// Small rings complete exhaustively; large ones exceed the leaf budget
	// and take the orbit descent. Both must agree across rotations.
	small := ring("s", 5, 0).CanonicalForm()
	if !small.Complete {
		t.Errorf("5-ring should complete within the leaf budget")
	}
	if b := ring("s2", 5, 2).CanonicalForm(); b.Sum != small.Sum {
		t.Errorf("rotated 5-ring got %016x, want %016x", b.Sum, small.Sum)
	}
	a := ring("a", 12, 0).CanonicalForm()
	if a.Complete {
		t.Errorf("12-ring unexpectedly exhausted its 12-leaf search within budget")
	}
	for rot := 1; rot < 12; rot += 3 {
		b := ring("b", 12, rot).CanonicalForm()
		if b.Sum != a.Sum {
			t.Errorf("rotated ring (rot=%d) got %016x, want %016x", rot, b.Sum, a.Sum)
		}
	}
	if c := ring("c", 13, 0).CanonicalForm(); c.Sum == a.Sum {
		t.Errorf("13-ring collides with 12-ring")
	}
}

func TestCanonicalMemoized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomValidGraph(rng, 24)
	c1 := g.CanonicalForm()
	c2 := g.CanonicalForm()
	if &c1.Perm[0] != &c2.Perm[0] {
		t.Errorf("CanonicalForm did not memoize")
	}
	if int32(len(c1.Perm)) != int32(g.NumNodes()) {
		t.Errorf("Perm length %d, want %d", len(c1.Perm), g.NumNodes())
	}
}

func TestCanonicalEmptyGraph(t *testing.T) {
	a := NewBuilder("a").MustBuild()
	b := NewBuilder("b").MustBuild()
	if a.CanonicalFingerprint() != b.CanonicalFingerprint() {
		t.Errorf("empty graphs disagree")
	}
}

func TestPermuteRejectsBadPermutations(t *testing.T) {
	g := randomValidGraph(rand.New(rand.NewSource(1)), 5)
	if _, err := Permute(g, "x", []int{0, 1, 2}, nil); err == nil {
		t.Errorf("short node permutation accepted")
	}
	if _, err := Permute(g, "x", []int{0, 0, 1, 2, 3}, rand.New(rand.NewSource(1)).Perm(g.NumEdges())); err == nil {
		t.Errorf("duplicate node permutation accepted")
	}
}

// canonicalShapes are the three ways a labeling ends: discrete after
// refinement alone, an exhaustive search over several levels, and the
// linear descent.
func canonicalShapes() map[string]*Graph {
	return map[string]*Graph{
		"random n=40": randomValidGraph(rand.New(rand.NewSource(7)), 40),
		"5-ring":      ringGraph("ring", 5, 0),
		"12-ring":     ringGraph("ring", 12, 0),
	}
}

// ringGraph is a cycle of n fadds joined by distance-1 edges, numbered
// from position rot: refinement has nothing to split it by.
func ringGraph(name string, n, rot int) *Graph {
	b := NewBuilder(name)
	for i := 0; i < n; i++ {
		b.Node(fmt.Sprintf("r%d", i), OpFAdd)
	}
	for i := 0; i < n; i++ {
		b.Edge((i+rot)%n, (i+rot+1)%n, 1)
	}
	return b.MustBuild()
}

// TestCanonicalAllocs pins what a labeling costs the allocator once the
// pool is warm: the Perm it returns. Partition tables for every search
// depth, signatures, the worklist and both leaf buffers live in the pooled
// state.
func TestCanonicalAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	for name, g := range canonicalShapes() {
		canonicalize(g)
		if n := testing.AllocsPerRun(200, func() { canonicalize(g) }); n != 1 {
			t.Errorf("%s: a warm canonicalize allocates %v objects, want 1 (the Perm)", name, n)
		}
	}
}

// TestCanonicalSumsGolden pins the labeling itself. driver's
// TestJobKeyGolden pins one Sum, but of a three-node chain that any
// labeling orders the same way; these move whenever a hash constant, the
// order fresh cell ids are handed out in, or the descent's choice of node
// does. Sum is persisted (JobKey embeds it, DiskCache files are named by
// it) and routed on (cluster.routeKey): a change here is a jobKeyVersion
// bump, not a new golden value.
func TestCanonicalSumsGolden(t *testing.T) {
	golden := map[string]string{
		"random n=40": "8adcb3ae5669e5a5",
		"5-ring":      "869293fb53fdbdbf",
		"12-ring":     "5d9ad38dddaa1176",
	}
	for name, g := range canonicalShapes() {
		if got := fmt.Sprintf("%016x", canonicalize(g).Sum); got != golden[name] {
			t.Errorf("%s: Sum = %s, want %s (bump driver.jobKeyVersion if this is deliberate)", name, got, golden[name])
		}
	}
}

// CanonicalizeReference and Canonicalize hand the two labelings, both
// unmemoized, to the external tests that need workload and corpus loops
// (those packages import ddg).
func CanonicalizeReference(g *Graph) Canonical { return canonicalizeReference(g) }
func Canonicalize(g *Graph) Canonical          { return canonicalize(g) }

// RandomValidGraph is randomValidGraph for the same tests.
func RandomValidGraph(seed int64, n int) *Graph {
	return randomValidGraph(rand.New(rand.NewSource(seed)), n)
}

// RaceDetector tells them whether to shorten their populations.
const RaceDetector = raceDetector

// CheckIsomorphism composes two canonical permutations into a node map
// g → h and checks it is one: a bijection that preserves opcodes and
// carries g's edge multiset exactly onto h's.
func CheckIsomorphism(g, h *Graph, pg, ph []int32) error {
	n := g.NumNodes()
	if h.NumNodes() != n || h.NumEdges() != g.NumEdges() || len(pg) != n || len(ph) != n {
		return fmt.Errorf("sizes differ")
	}
	inv := make([]int32, n)
	seen := make([]bool, n)
	for v, c := range ph {
		if c < 0 || int(c) >= n || seen[c] {
			return fmt.Errorf("Perm is not a bijection onto [0, %d)", n)
		}
		seen[c] = true
		inv[c] = int32(v)
	}
	clear(seen)
	sigma := make([]int, n)
	for v, c := range pg {
		if c < 0 || int(c) >= n || seen[c] {
			return fmt.Errorf("Perm is not a bijection onto [0, %d)", n)
		}
		seen[c] = true
		sigma[v] = int(inv[c])
		if g.Nodes[v].Op != h.Nodes[sigma[v]].Op {
			return fmt.Errorf("node %d → %d changes the opcode", v, sigma[v])
		}
	}
	count := make(map[[5]int]int, h.NumEdges())
	for i := range h.Edges {
		e := &h.Edges[i]
		count[[5]int{e.Src, e.Dst, int(e.Kind), e.Dist, e.Lat}]++
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		k := [5]int{sigma[e.Src], sigma[e.Dst], int(e.Kind), e.Dist, e.Lat}
		if count[k] == 0 {
			return fmt.Errorf("edge %d has no image", i)
		}
		count[k]--
	}
	return nil
}
