package ddg

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPresentationIsATopologicalIsomorph: the presentation is the loop
// renumbered — an isomorphism through Perm — with every distance-0 edge
// pointing forward and the edges in (src, dst, kind, dist, lat) order; a
// renumbered clone whose labeling is complete presents to the same graph.
func TestPresentationIsATopologicalIsomorph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var p, pc Presentation
	for trial := 0; trial < 60; trial++ {
		g := randomValidGraph(rng, 2+rng.Intn(40))
		q := p.Of(g)
		if !q.Presented() || q.Name != g.Name || q.NumNodes() != g.NumNodes() {
			t.Fatalf("trial %d: presented %v, name %q, %d nodes", trial, q.Presented(), q.Name, q.NumNodes())
		}
		id := make([]int32, q.NumNodes())
		for v := range id {
			id[v] = int32(v)
		}
		if err := CheckIsomorphism(g, q, p.Perm, id); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i, e := range q.Edges {
			if e.ID != i || e.Dist == 0 && e.Src >= e.Dst {
				t.Fatalf("trial %d: edge %d is %+v", trial, i, e)
			}
			if i > 0 && (q.Edges[i-1].Src > e.Src || q.Edges[i-1].Src == e.Src && edgeAfter(&q.Edges[i-1], &e)) {
				t.Fatalf("trial %d: edges %d and %d out of order", trial, i-1, i)
			}
		}
		if !g.CanonicalForm().Complete {
			continue
		}
		c := pc.Of(permutedClone(t, g, rng))
		if !slices.Equal(c.Nodes, q.Nodes) || !slices.Equal(c.Edges, q.Edges) {
			t.Fatalf("trial %d: a renumbered clone presents differently", trial)
		}
	}
}

// TestPresentationOfTheSameLoopRenumbersNothing: presenting the loop just
// presented returns the same graph with the same Epoch and Perm, and
// allocates nothing — the scheduler's instance-graph reuse keys on both —
// while another loop, or the same loop after Release, is a new Epoch.
func TestPresentationOfTheSameLoopRenumbersNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, h := randomValidGraph(rng, 30), randomValidGraph(rng, 30)
	var p Presentation
	q := p.Of(g)
	epoch, perm := q.Epoch(), slices.Clone(p.Perm)
	if epoch == 0 {
		t.Fatal("a presented loop has epoch 0, the epoch of a built graph")
	}
	if avg := testing.AllocsPerRun(20, func() {
		if p.Of(g) != q || q.Epoch() != epoch || !slices.Equal(p.Perm, perm) {
			t.Fatal("presenting the same loop again changed the presentation")
		}
	}); avg != 0 {
		t.Errorf("presenting the same loop again allocates %.1f objects, want 0", avg)
	}
	if p.Of(h); q.Epoch() == epoch {
		t.Error("another loop kept the epoch")
	}
	if p.Of(g); q.Epoch() == epoch || !slices.Equal(p.Perm, perm) {
		t.Errorf("the loop presented again: epoch %d (was %d), same Perm %v", q.Epoch(), epoch, slices.Equal(p.Perm, perm))
	}
	epoch = q.Epoch()
	if p.Release(); q.Name != "" || p.Of(g).Epoch() == epoch {
		t.Error("Release kept the loop: name or epoch survived")
	}
}

// TestTimingScratchFollowsTheLoop: one TimingScratch asked about loops by
// turns — two built graphs, and a presentation's graph object holding each
// of them by turns — times each loop as a fresh scratch does. The order it
// keeps is the asked loop's, whatever graph object holds it.
func TestTimingScratchFollowsTheLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, h := randomValidGraph(rng, 30), randomValidGraph(rng, 24)
	var p Presentation
	loops := []func() *Graph{
		func() *Graph { return g },
		func() *Graph { return p.Of(g) },
		func() *Graph { return h },
		func() *Graph { return p.Of(h) },
		func() *Graph { return p.Of(h) },
		func() *Graph { return p.Of(g) },
	}
	var kept TimingScratch
	for round := range 3 {
		for i, loop := range loops {
			for _, ii := range []int{1, 3, 8} {
				q := loop()
				got := q.ComputeTimingScratch(ii, &kept)
				want := q.ComputeTimingScratch(ii, new(TimingScratch))
				if !slices.Equal(got.ASAP, want.ASAP) || !slices.Equal(got.ALAP, want.ALAP) || got.Length != want.Length {
					t.Fatalf("round %d, loop %d at II=%d: timing %+v, want %+v", round, i, ii, *got, *want)
				}
			}
		}
	}
}
