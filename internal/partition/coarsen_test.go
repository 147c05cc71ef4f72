package partition

import (
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/workload"
)

func TestEdgeWeightsCriticalEdgesHeavier(t *testing.T) {
	// Critical-path edges must outweigh slack-rich edges so the matcher
	// keeps critical producer/consumer pairs together.
	b := ddg.NewBuilder("w")
	l := b.Node("l", ddg.OpLoad)
	long := b.Node("long", ddg.OpFDiv) // 18-cycle arm
	short := b.Node("short", ddg.OpIAdd)
	join := b.Node("join", ddg.OpFAdd)
	b.Edge(l, long, 0)
	b.Edge(l, short, 0)
	b.Edge(long, join, 0)
	b.Edge(short, join, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	w := edgeWeights(g, m, 4, NewScratch())
	var wLong, wShort int
	for i := range g.Edges {
		switch g.Edges[i].Dst {
		case join:
			if g.Edges[i].Src == long {
				wLong = w[i]
			} else {
				wShort = w[i]
			}
		}
	}
	if wLong <= wShort {
		t.Errorf("critical edge weight %d not above slack-rich edge %d", wLong, wShort)
	}
}

func TestEdgeWeightsMemEdgesZero(t *testing.T) {
	b := ddg.NewBuilder("m")
	s := b.Node("s", ddg.OpStore)
	l := b.Node("l", ddg.OpLoad)
	b.MemEdge(s, l, 1) // next iteration's load waits for this store
	x := b.Node("x", ddg.OpFAdd)
	b.Edge(l, x, 0)
	b.Edge(x, s, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	w := edgeWeights(g, m, 4, NewScratch())
	for i := range g.Edges {
		if g.Edges[i].Kind == ddg.EdgeMem && w[i] != 0 {
			t.Errorf("memory edge has weight %d, want 0 (never costs a communication)", w[i])
		}
	}
}

func TestCoarsenRespectsCapacity(t *testing.T) {
	// 16 fp nodes in one connected blob on a machine with 2 fp units per
	// cluster at ii=4: no macro may exceed 8 fp ops.
	b := ddg.NewBuilder("cap")
	prev := -1
	for i := 0; i < 16; i++ {
		v := b.Node("", ddg.OpFAdd)
		if prev >= 0 {
			b.Edge(prev, v, 0)
		}
		prev = v
	}
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	w := edgeWeights(g, m, 4, NewScratch())
	ms := coarsen(g, m, 4, w, NewScratch())
	for mi := 0; mi < ms.n; mi++ {
		if ms.counts[mi][ddg.ClassFP] > 8 {
			t.Errorf("macro with %d fp ops exceeds cluster capacity 8", ms.counts[mi][ddg.ClassFP])
		}
	}
	total := 0
	for mi := 0; mi < ms.n; mi++ {
		total += len(ms.members(mi))
	}
	if total != g.NumNodes() {
		t.Errorf("macros cover %d of %d nodes", total, g.NumNodes())
	}
}

func TestCoarsenDisconnectedComponents(t *testing.T) {
	// More components than clusters: forceMerge must still converge and
	// cover everything.
	b := ddg.NewBuilder("disc")
	for i := 0; i < 7; i++ {
		l := b.Node("", ddg.OpLoad)
		f := b.Node("", ddg.OpFAdd)
		b.Edge(l, f, 0)
	}
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	w := edgeWeights(g, m, 8, NewScratch())
	ms := coarsen(g, m, 8, w, NewScratch())
	total := 0
	for mi := 0; mi < ms.n; mi++ {
		total += len(ms.members(mi))
	}
	if total != g.NumNodes() {
		t.Fatalf("macros cover %d of %d nodes", total, g.NumNodes())
	}
	if ms.n > 7 {
		t.Errorf("no coarsening happened: %d macros", ms.n)
	}
}

// hostileBus is a machine whose bus latency puts the summed edge weights
// past what a packed sort key holds: coarsen must take the comparator path.
func hostileBus() machine.Config { return machine.MustNew(4, 1, 1<<22, 64) }

// checkSortPairs holds sortPairs to sortPairsReference on the macro graph
// of g under weights w, level after level: each level's list is sorted by
// the reference, by the path edgePairs' guard selects and — when the pairs
// pack — by the comparator path too, then contracted along a greedy
// matching (as coarsen does, capacity aside) so later levels carry parallel
// pairs to add up. It returns what the guard said.
func checkSortPairs(t *testing.T, g *ddg.Graph, w []int, sc *Scratch) bool {
	t.Helper()
	pairs, packable := edgePairs(g, w, sc)
	pairs = slices.Clone(pairs)
	rep, matched := make([]int, g.NumNodes()), make([]bool, g.NumNodes())
	for level := 0; len(pairs) > 0; level++ {
		want := sortPairsReference(slices.Clone(pairs))
		for _, packed := range []bool{packable, false} {
			if got := sortPairs(slices.Clone(pairs), packed, sc); !slices.Equal(got, want) {
				t.Fatalf("%s level %d (packed keys: %v): sortPairs differs from the reference\n got %v\nwant %v", g.Name, level, packed, got, want)
			}
		}
		for v := range rep {
			rep[v], matched[v] = v, false
		}
		for _, p := range want {
			if !matched[p.a] && !matched[p.b] {
				rep[p.b], matched[p.a], matched[p.b] = p.a, true, true
			}
		}
		pairs = pairs[:0]
		for _, p := range want {
			if a, b := rep[p.a], rep[p.b]; a != b {
				pairs = append(pairs, macroPair{a: min(a, b), b: max(a, b), w: p.w})
			}
		}
	}
	return packable
}

// TestSortPairsMatchesReference runs checkSortPairs over the suite and a
// corpus sample: on the Table 1 machines every loop must pack, on the
// hostile one none with a data edge may, and both paths must produce the
// retired code's list.
func TestSortPairsMatchesReference(t *testing.T) {
	var graphs []*ddg.Graph
	for _, l := range workload.SPECfp95() {
		graphs = append(graphs, l.Graph)
	}
	spec := corpus.DefaultSpec()
	for i := 0; i < 512; i++ {
		graphs = append(graphs, spec.Loop(i))
	}
	sc := NewScratch()
	hostile, fellBack := hostileBus(), 0
	for _, g := range graphs {
		for _, m := range []machine.Config{machine.MustParse("4c2b2l64r"), machine.MustParse("2c2b4l64r")} {
			ii := mii.MII(g, m)
			if !checkSortPairs(t, g, slices.Clone(edgeWeights(g, m, ii, sc)), sc) {
				t.Fatalf("%s on %s: the guard refused to pack a suite-sized loop", g.Name, m.Name)
			}
		}
		if !checkSortPairs(t, g, slices.Clone(edgeWeights(g, hostile, mii.MII(g, hostile), sc)), sc) {
			fellBack++
		}
		checkSortPairs(t, g, uniformWeights(g), sc)
	}
	if fellBack < len(graphs)/2 {
		t.Errorf("only %d of %d loops took the comparator path on %s", fellBack, len(graphs), hostile.Name)
	}
	// The whole partitioner on the hostile machine, against its oracles.
	d := newDiffer(t)
	for _, g := range graphs[:200] {
		d.loop(g, hostile)
	}
}
