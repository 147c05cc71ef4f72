package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
)

// twoChains builds two independent chains of fadds; an ideal 2-cluster
// partition needs zero communications.
func twoChains(n int) *ddg.Graph {
	b := ddg.NewBuilder("twochains")
	var prev [2]int
	prev[0], prev[1] = -1, -1
	for i := 0; i < n; i++ {
		for k := 0; k < 2; k++ {
			v := b.Node("", ddg.OpFAdd)
			if prev[k] >= 0 {
				b.Edge(prev[k], v, 0)
			}
			prev[k] = v
		}
	}
	return b.MustBuild()
}

func randomGraph(rng *rand.Rand, n int) *ddg.Graph {
	b := ddg.NewBuilder("rand")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Node("", ops[rng.Intn(len(ops))])
	}
	for i := 1; i < n; i++ {
		// Each node consumes 1-2 earlier values: connected-ish DAG.
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.Edge(ids[rng.Intn(i)], ids[i], 0)
		}
	}
	if n > 2 && rng.Intn(2) == 0 {
		b.Edge(ids[n-1], ids[0], 1+rng.Intn(2)) // a recurrence
	}
	return b.MustBuild()
}

func TestUnifiedAssignment(t *testing.T) {
	g := twoChains(4)
	a := Initial(g, machine.Unified(64), 1)
	if a.K != 1 {
		t.Fatalf("K = %d", a.K)
	}
	if a.Comms(g) != 0 {
		t.Error("unified assignment has communications")
	}
}

func TestInitialCoversAllNodes(t *testing.T) {
	g := twoChains(6)
	m := machine.MustParse("2c1b2l64r")
	a := Initial(g, m, 8)
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestTwoChainsPartitionHasNoComms(t *testing.T) {
	g := twoChains(8)
	m := machine.MustParse("2c1b2l64r")
	a := Initial(g, m, 8)
	if coms := a.Comms(g); coms != 0 {
		t.Errorf("two independent chains partitioned with %d comms, want 0", coms)
	}
}

func TestFourChainsOnFourClusters(t *testing.T) {
	b := ddg.NewBuilder("fourchains")
	for k := 0; k < 4; k++ {
		prev := -1
		for i := 0; i < 5; i++ {
			v := b.Node("", ddg.OpFAdd)
			if prev >= 0 {
				b.Edge(prev, v, 0)
			}
			prev = v
		}
	}
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	a := Initial(g, m, 8)
	if coms := a.Comms(g); coms != 0 {
		t.Errorf("four independent chains on 4 clusters: %d comms, want 0", coms)
	}
	// All four clusters should be used (5 fadds need 5 cycles on 1 FU; one
	// cluster holding two chains would induce II 10 > 8).
	used := map[int]bool{}
	for _, c := range a.Cluster {
		used[c] = true
	}
	if len(used) != 4 {
		t.Errorf("only %d clusters used", len(used))
	}
}

func TestRefineImprovesOrKeepsScore(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := machine.MustParse("4c2b2l64r")
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 8+rng.Intn(24))
		ii := 4 + rng.Intn(6)
		a := Initial(g, m, ii)
		before := InducedII(g, m, a)
		r := Refine(g, m, ii+1, a)
		if err := r.Validate(g); err != nil {
			t.Fatal(err)
		}
		after := InducedII(g, m, r)
		if after > before {
			t.Errorf("trial %d: Refine worsened induced II %d -> %d", trial, before, after)
		}
	}
}

func TestCommsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 4+rng.Intn(20))
		a := Initial(g, m, 6)
		want := 0
		for v := range g.Nodes {
			cross := false
			for _, eid := range g.Out(v) {
				e := &g.Edges[eid]
				if e.Kind == ddg.EdgeData && a.Cluster[e.Dst] != a.Cluster[v] {
					cross = true
				}
			}
			if cross && !g.Nodes[v].Op.IsStore() {
				want++
			}
		}
		if got := a.Comms(g); got != want {
			t.Fatalf("trial %d: Comms = %d, want %d", trial, got, want)
		}
	}
}

func TestRefineStateIncrementalConsistency(t *testing.T) {
	// Property: after a random sequence of moves, incremental comm count and
	// cut equal recomputed-from-scratch values.
	rng := rand.New(rand.NewSource(99))
	m := machine.MustParse("4c2b2l64r")
	for trial := 0; trial < 50; trial++ {
		g := randomGraph(rng, 5+rng.Intn(20))
		a := Initial(g, m, 6).Clone()
		sc := NewScratch()
		w := append([]int(nil), edgeWeights(g, m, 6, sc)...)
		targetII := 2 + rng.Intn(6)
		st := newRefineState(g, m, a, w, targetII, sc)
		for k := 0; k < 30; k++ {
			st.move(rng.Intn(g.NumNodes()), rng.Intn(a.K))
		}
		if got, want := st.numComs, a.Comms(g); got != want {
			t.Fatalf("trial %d: incremental coms %d, recomputed %d", trial, got, want)
		}
		wcut := 0
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.Kind == ddg.EdgeData && a.Cluster[e.Src] != a.Cluster[e.Dst] {
				wcut += w[i]
			}
		}
		if st.wcut != wcut {
			t.Fatalf("trial %d: incremental wcut %d, recomputed %d", trial, st.wcut, wcut)
		}
		// The incrementally maintained resource IIs and capacity overflow
		// must match a from-scratch recomputation.
		counts := a.ClassCounts(g)
		over := 0
		for c := range counts {
			if got, want := st.resII[c], mii.ClusterResIIAt(counts[c], m, c); got != want {
				t.Fatalf("trial %d: incremental resII[%d] %d, recomputed %d", trial, c, got, want)
			}
			for cl, n := range counts[c] {
				if ex := n - m.FUAt(c, ddg.Class(cl))*targetII; ex > 0 {
					over += ex
				}
			}
		}
		if st.over != over {
			t.Fatalf("trial %d: incremental overflow %d, recomputed %d", trial, st.over, over)
		}
	}
}

func TestInitialIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 24)
	m := machine.MustParse("4c2b2l64r")
	a1 := Initial(g, m, 6)
	a2 := Initial(g, m, 6)
	for v := range a1.Cluster {
		if a1.Cluster[v] != a2.Cluster[v] {
			t.Fatalf("nondeterministic partition at node %d", v)
		}
	}
}

func TestValidateCatchesBadAssignment(t *testing.T) {
	g := twoChains(2)
	bad := &Assignment{Cluster: []int{0, 5, 0, 0}, K: 2}
	if err := bad.Validate(g); err == nil {
		t.Error("out-of-range cluster accepted")
	}
	short := &Assignment{Cluster: []int{0}, K: 2}
	if err := short.Validate(g); err == nil {
		t.Error("short assignment accepted")
	}
}

func TestQuickPartitionAlwaysValid(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw%40)
		g := randomGraph(rng, n)
		for _, ii := range []int{1, 2, 4, 16} {
			a := Initial(g, m, ii)
			if a.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHeterogeneousPartitionAvoidsIncapableClusters(t *testing.T) {
	m, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{4, 0, 2}, // integer-only datapath
		{0, 4, 2}, // FP-only datapath
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 6+rng.Intn(20))
		a := Initial(g, m, 8)
		if err := a.Validate(g); err != nil {
			t.Fatal(err)
		}
		for v := range g.Nodes {
			cl := g.Nodes[v].Op.Class()
			c := a.Cluster[v]
			if m.FUAt(c, cl) == 0 {
				t.Fatalf("trial %d: %v node on cluster %d with no %v units", trial, cl, c, cl)
			}
		}
	}
}

func TestInducedIIHeterogeneous(t *testing.T) {
	m, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{
		{2, 1, 1},
		{1, 2, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := twoChains(6) // 12 fadds: best split 6/6 -> II ceil(6/2)=3 on c1...
	a := Initial(g, m, 8)
	if got := InducedII(g, m, a); got < 3 {
		t.Errorf("InducedII = %d, impossible below 3 (12 fp ops, 3 fp units total... at least ceil(best)", got)
	}
}

func TestRefineReleasesTheJob(t *testing.T) {
	// The refinement state lives in a Scratch that sync.Pools keep alive:
	// once a call returns it must not pin that call's graph.
	sc := NewScratch()
	g := twoChains(6)
	m := machine.MustParse("2c1b2l64r")
	a := InitialScratch(g, m, 8, sc)
	if sc.st.g != nil || sc.st.a != nil || sc.st.w != nil {
		t.Error("InitialScratch left the graph, assignment or weights in the Scratch")
	}
	RefineScratch(g, m, 9, a, sc)
	if sc.st.g != nil || sc.st.a != nil || sc.st.w != nil {
		t.Error("RefineScratch left the graph, assignment or weights in the Scratch")
	}
}
