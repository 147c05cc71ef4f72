package pipeline

import (
	"math/rand"
	"reflect"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/sched"
	"clusched/internal/workload"
)

func remapMachine() machine.Config { return machine.MustParse("4c2b2l64r") }

// TestRemapResultAcrossSuite compiles every SPECfp95 loop, remaps the
// result onto a permuted clone, and checks the transplanted schedule
// re-verifies with headline numbers identical to the cached compilation.
// A fresh compilation of the clone is NOT asserted equal: the pipeline's
// heuristics break ties by node numbering, so the same abstract loop
// presented in a different order can legitimately land on a different II
// (either direction) — the remap contract is bit-identity with the cached
// result through the isomorphism, proven by re-verification, not equality
// with one particular presentation's heuristic path.
func TestRemapResultAcrossSuite(t *testing.T) {
	m := remapMachine()
	opts := Options{Replicate: true}
	loops := workload.SPECfp95()
	if testing.Short() {
		loops = loops[:40]
	}
	remapped := 0
	for i, l := range loops {
		res, err := Compile(l.Graph, m, opts)
		if err != nil {
			continue // unschedulable loops have nothing to remap
		}
		clone := ddg.PermuteRandom(l.Graph, l.Graph.Name+"#p", int64(i)*104729+17)
		if clone.CanonicalFingerprint() != l.Graph.CanonicalFingerprint() {
			t.Fatalf("%s: clone changed the canonical fingerprint", l.Graph.Name)
		}
		got, err := RemapResult(res, clone, opts)
		if err != nil {
			t.Fatalf("%s: remap failed: %v", l.Graph.Name, err)
		}
		remapped++
		if got.II != res.II || got.Length != res.Length || got.SC != res.SC ||
			got.MII != res.MII || got.Comms != res.Comms {
			t.Errorf("%s: remap changed headline numbers: II %d→%d len %d→%d",
				l.Graph.Name, res.II, got.II, res.Length, got.Length)
		}
		if got.Loop != clone {
			t.Errorf("%s: remapped result does not point at the target graph", l.Graph.Name)
		}
		// The transplanted schedule must satisfy the clone's constraints
		// exactly as Verify defines them.
		if err := sched.Verify(got.Schedule); err != nil {
			t.Errorf("%s: remapped schedule fails verification: %v", l.Graph.Name, err)
		}
	}
	if remapped == 0 {
		t.Fatal("no loop exercised the remap path")
	}
}

// TestRemapBitIdentity pins the strongest form of the soundness claim on a
// hand-built loop: remap onto a permuted clone, then permute the clone's
// schedule back — every instance's issue time and placement must be
// bit-identical to the original compilation's.
func TestRemapBitIdentity(t *testing.T) {
	b := ddg.NewBuilder("bitident")
	l1 := b.Node("l1", ddg.OpLoad)
	l2 := b.Node("l2", ddg.OpLoad)
	m1 := b.Node("m1", ddg.OpFMul)
	a1 := b.Node("a1", ddg.OpFAdd)
	st := b.Node("st", ddg.OpStore)
	b.Edge(l1, m1, 0)
	b.Edge(l2, m1, 0)
	b.Edge(m1, a1, 0)
	b.Edge(a1, a1, 1)
	b.Edge(a1, st, 0)
	g := b.MustBuild()

	m := remapMachine()
	opts := Options{Replicate: true}
	res, err := Compile(g, m, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	clone, err := ddg.Permute(g, "bitident-clone", rng.Perm(g.NumNodes()), rng.Perm(g.NumEdges()))
	if err != nil {
		t.Fatalf("permute: %v", err)
	}
	got, err := RemapResult(res, clone, opts)
	if err != nil {
		t.Fatalf("remap: %v", err)
	}

	// Compose the canonical permutations to recover sigma and compare
	// per-node, per-cluster issue times.
	cg, cc := g.CanonicalForm(), clone.CanonicalForm()
	inv := make([]int32, clone.NumNodes())
	for v, c := range cc.Perm {
		inv[c] = int32(v)
	}
	for v := 0; v < g.NumNodes(); v++ {
		w := int(inv[cg.Perm[v]])
		if res.Placement.Home[v] != got.Placement.Home[w] ||
			res.Placement.Replicas[v] != got.Placement.Replicas[w] {
			t.Errorf("node %d: placement not carried over", v)
		}
		for c := 0; c < m.Clusters; c++ {
			oi := res.Schedule.IG.InstanceAt(v, c)
			ni := got.Schedule.IG.InstanceAt(w, c)
			if (oi < 0) != (ni < 0) {
				t.Fatalf("node %d cluster %d: instance existence differs", v, c)
			}
			if oi >= 0 && res.Schedule.Time[oi] != got.Schedule.Time[ni] {
				t.Errorf("node %d cluster %d: time %d vs %d", v, c,
					res.Schedule.Time[oi], got.Schedule.Time[ni])
			}
		}
		oc, nc := res.Schedule.IG.CopyIdx[v], got.Schedule.IG.CopyIdx[w]
		if (oc < 0) != (nc < 0) {
			t.Fatalf("node %d: copy existence differs", v)
		}
		if oc >= 0 && res.Schedule.Time[oc] != got.Schedule.Time[nc] {
			t.Errorf("node %d: copy time %d vs %d", v, res.Schedule.Time[oc], got.Schedule.Time[nc])
		}
	}
	if got.II != res.II || got.Length != res.Length || got.SC != res.SC {
		t.Errorf("headline numbers changed: %+v vs %+v", got.II, res.II)
	}
	if !reflect.DeepEqual(got.Replicated, res.Replicated) || got.Removed != res.Removed {
		t.Errorf("replication accounting changed")
	}
}

// TestRemapRejectsNonIsomorphic: a graph with the same sizes but different
// structure must be refused before any schedule is built.
func TestRemapRejectsNonIsomorphic(t *testing.T) {
	b := ddg.NewBuilder("a")
	x := b.Node("x", ddg.OpLoad)
	y := b.Node("y", ddg.OpFAdd)
	b.Edge(x, y, 0)
	g := b.MustBuild()

	b2 := ddg.NewBuilder("b")
	x2 := b2.Node("x", ddg.OpLoad)
	y2 := b2.Node("y", ddg.OpFAdd)
	b2.Edge(x2, y2, 1)
	h := b2.MustBuild()

	m := remapMachine()
	opts := Options{}
	res, err := Compile(g, m, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if _, err := RemapResult(res, h, opts); err == nil {
		t.Fatal("remap accepted a non-isomorphic graph")
	}
}

// TestRemapAllocs pins what a semantic hit's transplant costs the allocator
// once both canonical forms are memoized and the pools are warm: the Result
// and the proof's one copy out of the arena (sched's
// TestProveSteadyStateAllocs: 6, the placement inside) — what a compilation
// costs. The three permutation vectors come from a pooled slab and the
// permuted placement is written straight into the proof's arena.
func TestRemapAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	m := remapMachine()
	opts := Options{Replicate: true}
	var g *ddg.Graph
	for _, l := range workload.SPECfp95() {
		if l.Graph.NumNodes() == 29 {
			g = l.Graph
			break
		}
	}
	if g == nil {
		t.Fatal("suite has no 29-node loop")
	}
	res, err := Compile(g, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	clone := ddg.PermuteRandom(g, g.Name+"#p", 17)
	remap := func() {
		if _, err := RemapResult(res, clone, opts); err != nil {
			t.Fatal(err)
		}
	}
	remap()
	if avg := testing.AllocsPerRun(100, remap); avg != censusObjects {
		t.Errorf("a warm RemapResult allocates %.1f objects, want %d (the Result and 6 in sched.Prove)", avg, censusObjects)
	}
}
