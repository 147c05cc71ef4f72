package experiments

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/mii"
)

func reduction(t *testing.T) *ddg.Graph {
	t.Helper()
	b := ddg.NewBuilder("red")
	acc := b.Node("acc", ddg.OpFAdd)
	b.Edge(acc, acc, 1)
	ld := b.Node("ld", ddg.OpLoad)
	m := b.Node("m", ddg.OpFMul)
	b.Edge(ld, m, 0)
	b.Edge(m, acc, 0)
	st := b.Node("st", ddg.OpStore)
	b.Edge(m, st, 0)
	return b.MustBuild()
}

func TestUnrollFactor1IsClone(t *testing.T) {
	g := reduction(t)
	u, err := Unroll(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != g.NumNodes() || u.NumEdges() != g.NumEdges() {
		t.Errorf("factor-1 unroll changed the graph")
	}
}

func TestUnrollRejectsBadFactor(t *testing.T) {
	if _, err := Unroll(reduction(t), 0); err == nil {
		t.Error("factor 0 accepted")
	}
}

func TestUnrollDoublesNodes(t *testing.T) {
	g := reduction(t)
	u, err := Unroll(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != 2*g.NumNodes() {
		t.Errorf("nodes %d, want %d", u.NumNodes(), 2*g.NumNodes())
	}
}

func TestUnrollRewritesDistances(t *testing.T) {
	// acc self-loop dist 1 unrolled by 2: acc_u0 -> acc_u1 dist 0,
	// acc_u1 -> acc_u0 dist 1.
	g := reduction(t)
	u, err := Unroll(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	a0, a1 := -1, -1
	for v, n := range u.Nodes {
		switch n.Label {
		case "acc_u0":
			a0 = v
		case "acc_u1":
			a1 = v
		}
	}
	if a0 < 0 || a1 < 0 {
		t.Fatal("renamed accumulators missing")
	}
	var d01, d10 = -1, -1
	for i := range u.Edges {
		e := &u.Edges[i]
		if e.Src == a0 && e.Dst == a1 {
			d01 = e.Dist
		}
		if e.Src == a1 && e.Dst == a0 {
			d10 = e.Dist
		}
	}
	if d01 != 0 || d10 != 1 {
		t.Errorf("unrolled recurrence distances: a0->a1 %d (want 0), a1->a0 %d (want 1)", d01, d10)
	}
}

func TestUnrollPreservesRecMIIPerSourceIteration(t *testing.T) {
	// The recurrence bound per ORIGINAL iteration is invariant under
	// unrolling: RecMII(unrolled)/factor == RecMII(original) for a
	// single-cycle reduction.
	g := reduction(t)
	base := mii.RecMIIScratch(g, mii.NewScratch())
	for _, f := range []int{2, 3, 4} {
		u, err := Unroll(g, f)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(mii.RecMIIScratch(u, mii.NewScratch())) / float64(f)
		if got > float64(base)+1e-9 || got < float64(base)-1.0 {
			t.Errorf("factor %d: RecMII per source iteration %.2f, original %d", f, got, base)
		}
	}
}

func TestUnrollRandomGraphsValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		b := ddg.NewBuilder("rand")
		ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
		n := 4 + rng.Intn(16)
		ids := make([]int, n)
		for i := range ids {
			ids[i] = b.Node("", ops[rng.Intn(len(ops))])
		}
		for i := 1; i < n; i++ {
			b.Edge(ids[rng.Intn(i)], ids[i], rng.Intn(3)/2)
		}
		if rng.Intn(2) == 0 {
			b.Edge(ids[n-1], ids[0], 1+rng.Intn(2))
		}
		g := b.MustBuild()
		for _, f := range []int{2, 3} {
			u, err := Unroll(g, f)
			if err != nil {
				t.Fatalf("trial %d factor %d: %v", trial, f, err)
			}
			if err := u.Validate(); err != nil {
				t.Fatalf("trial %d factor %d: %v", trial, f, err)
			}
			if u.NumEdges() != f*g.NumEdges() && g.NumEdges() > 0 {
				// Mem self-edges at dist 0 may be dropped; data edges never.
				data := 0
				for i := range g.Edges {
					if g.Edges[i].Kind == ddg.EdgeData {
						data++
					}
				}
				uData := 0
				for i := range u.Edges {
					if u.Edges[i].Kind == ddg.EdgeData {
						uData++
					}
				}
				if uData != f*data {
					t.Fatalf("trial %d: %d data edges, want %d", trial, uData, f*data)
				}
			}
		}
	}
}
