package partition

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/workload"
)

// evalMachines cover K = 2, 4 and 8, homogeneous and with classes that
// some clusters cannot execute (classCeil's 1<<20 sentinel).
func evalMachines(t testing.TB) []machine.Config {
	t.Helper()
	hetero4, err := machine.NewHetero(1, 2, 16, [][ddg.NumClasses]int{
		{2, 0, 1}, {0, 2, 1}, {1, 1, 0}, {1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	hetero8, err := machine.NewHetero(2, 3, 8, [][ddg.NumClasses]int{
		{1, 0, 1}, {0, 1, 1}, {1, 1, 0}, {1, 1, 1},
		{2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return []machine.Config{
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		hetero4,
		hetero8,
	}
}

// evalGraph builds a random graph with everything the evaluator must get
// right: parallel data edges, data self-loops, memory-only neighbours,
// stores — and, when badStore is set, a store with an outgoing data edge,
// which ddg.Validate rejects but refineState must still count as the
// reference does (it never communicates, its edges still weigh on the cut).
func evalGraph(rng *rand.Rand, n int, badStore bool) *ddg.Graph {
	b := ddg.NewBuilder("eval")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpIDiv, ddg.OpFAdd, ddg.OpFMul, ddg.OpFDiv, ddg.OpLoad, ddg.OpStore}
	for i := 0; i < n; i++ {
		b.Node("", ops[rng.Intn(len(ops))])
	}
	isStore := func(v int) bool { return b.Graph().Nodes[v].Op.IsStore() }
	for v := 1; v < n; v++ {
		for k := rng.Intn(3); k > 0; k-- {
			p := rng.Intn(v)
			if isStore(p) && !badStore {
				b.MemEdge(p, v, 0)
				continue
			}
			b.Edge(p, v, 0)
			if rng.Intn(4) == 0 {
				b.Edge(p, v, rng.Intn(2)) // a parallel edge
			}
		}
		if !isStore(v) && rng.Intn(5) == 0 {
			b.Edge(v, v, 1+rng.Intn(2)) // a data self-loop
		}
		if rng.Intn(4) == 0 {
			b.MemEdge(v, rng.Intn(n), 1) // a memory-only neighbour (or self)
		}
		if !isStore(v) && rng.Intn(6) == 0 {
			b.Edge(v, rng.Intn(v), 1) // a recurrence
		}
	}
	if badStore {
		return b.Graph()
	}
	return b.MustBuild()
}

// handBuiltEvalGraphs are the shapes neither the suite nor the corpus
// holds, spelled out.
func handBuiltEvalGraphs() []*ddg.Graph {
	var gs []*ddg.Graph

	// Two parallel data edges p→v, a third consumer of p elsewhere.
	b := ddg.NewBuilder("parallel")
	p := b.Node("p", ddg.OpLoad)
	v := b.Node("v", ddg.OpFMul)
	u := b.Node("u", ddg.OpFAdd)
	b.Edge(p, v, 0)
	b.Edge(p, v, 0)
	b.Edge(p, u, 0)
	b.Edge(v, u, 0)
	gs = append(gs, b.MustBuild())

	// An accumulator: a double self-loop, one outside consumer.
	b = ddg.NewBuilder("selfloop")
	x := b.Node("x", ddg.OpLoad)
	acc := b.Node("acc", ddg.OpFAdd)
	out := b.Node("out", ddg.OpStore)
	b.Edge(x, acc, 0)
	b.Edge(acc, acc, 1)
	b.Edge(acc, acc, 2)
	b.Edge(acc, out, 0)
	gs = append(gs, b.MustBuild())

	// Memory-only neighbours: nothing here may cost a communication.
	b = ddg.NewBuilder("memonly")
	s := b.Node("s", ddg.OpStore)
	l := b.Node("l", ddg.OpLoad)
	l2 := b.Node("l2", ddg.OpLoad)
	b.MemEdge(s, l, 1)
	b.MemEdge(l2, s, 0)
	b.MemEdge(s, s, 1)
	gs = append(gs, b.MustBuild())

	// A store with outgoing data edges (unvalidated on purpose).
	b = ddg.NewBuilder("badstore")
	a := b.Node("a", ddg.OpIAdd)
	st := b.Node("st", ddg.OpStore)
	c := b.Node("c", ddg.OpIMul)
	d := b.Node("d", ddg.OpIAdd)
	b.Edge(a, st, 0)
	b.Edge(st, c, 0)
	b.Edge(st, c, 1)
	b.Edge(st, d, 0)
	b.Edge(c, d, 0)
	b.Edge(st, st, 1)
	gs = append(gs, b.Graph())
	return gs
}

// refineSnapshot is every piece of state a committed move maintains.
type refineSnapshot struct {
	cluster []int
	counts  [][ddg.NumClasses]int
	classII []int
	resII   []int
	consIn  []int32
	comm    []int8
	over    int
	numComs int
	wcut    int
}

func (st *refineState) snapshot() refineSnapshot {
	return refineSnapshot{
		cluster: slices.Clone(st.a.Cluster),
		counts:  slices.Clone(st.counts),
		classII: slices.Clone(st.classII),
		resII:   slices.Clone(st.resII),
		consIn:  slices.Clone(st.consIn),
		comm:    slices.Clone(st.comm),
		over:    st.over, numComs: st.numComs, wcut: st.wcut,
	}
}

func (s refineSnapshot) equal(o refineSnapshot) bool {
	return slices.Equal(s.cluster, o.cluster) && slices.Equal(s.counts, o.counts) &&
		slices.Equal(s.classII, o.classII) && slices.Equal(s.resII, o.resII) &&
		slices.Equal(s.consIn, o.consIn) && slices.Equal(s.comm, o.comm) &&
		s.over == o.over && s.numComs == o.numComs && s.wcut == o.wcut
}

// checkEval requires, for every node v and every cluster c other than its
// own, that the read-only score equals move → score() → move back, and that
// evaluating wrote nothing.
func checkEval(t *testing.T, g *ddg.Graph, m machine.Config, a *Assignment, w []int, targetII int) {
	t.Helper()
	sc := NewScratch()
	st := newRefineState(g, m, a, w, targetII, sc)
	base := st.snapshot()
	for v := range g.Nodes {
		home := a.Cluster[v]
		st.prepare(v)
		for c := 0; c < a.K; c++ {
			if c == home {
				continue
			}
			got := st.eval(c)
			if !st.snapshot().equal(base) {
				t.Fatalf("%s on %s: evaluating node %d → cluster %d wrote to the state", g.Name, m.Name, v, c)
			}
			st.move(v, c)
			want := st.score()
			st.move(v, home)
			if got != want {
				t.Fatalf("%s on %s at II %d, assignment %v: node %d → cluster %d evaluates to %+v, moving it scores %+v",
					g.Name, m.Name, targetII, a.Cluster, v, c, got, want)
			}
		}
		if slices.IndexFunc(st.predMult, func(x int32) bool { return x != 0 }) >= 0 {
			t.Fatalf("%s: prepare(%d) left predecessor multiplicities behind", g.Name, v)
		}
	}
}

func randomAssignment(rng *rand.Rand, n, k int) *Assignment {
	a := &Assignment{Cluster: make([]int, n), K: k}
	// Sometimes crowd a few clusters, so overflow and the bus bound bite.
	span := 1 + rng.Intn(k)
	for v := range a.Cluster {
		a.Cluster[v] = rng.Intn(span)
	}
	return a
}

func randomWeights(rng *rand.Rand, g *ddg.Graph) []int {
	w := make([]int, g.NumEdges())
	for i := range w {
		if g.Edges[i].Kind == ddg.EdgeData {
			w[i] = 1 + 4*rng.Intn(4)
		}
	}
	return w
}

func TestEvalMatchesMoveScore(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	machines := evalMachines(t)
	graphs := handBuiltEvalGraphs()
	for trial := 0; trial < 120; trial++ {
		graphs = append(graphs, evalGraph(rng, 2+rng.Intn(30), trial%3 == 0))
	}
	for _, l := range workload.SPECfp95()[:40] {
		graphs = append(graphs, l.Graph)
	}
	for _, g := range graphs {
		for _, m := range machines {
			for rep := 0; rep < 3; rep++ {
				checkEval(t, g, m, randomAssignment(rng, g.NumNodes(), m.Clusters), randomWeights(rng, g), 1+rng.Intn(6))
			}
		}
	}
}

// FuzzRefine holds the partitioner to its oracles on whatever graph the
// text parser admits, with the machine and the II drawn from the input.
func FuzzRefine(f *testing.F) {
	for _, l := range workload.SPECfp95()[:8] {
		text, err := ddg.MarshalText(l.Graph)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text, uint8(len(text)), uint8(len(l.Graph.Nodes)))
		// And once on a machine whose weights pack into coarsen's sort
		// keys, once on the one whose do not (machines[0] and [1] below).
		f.Add(text, uint8(0), uint8(len(l.Graph.Nodes)))
		f.Add(text, uint8(1), uint8(len(l.Graph.Nodes)))
	}
	machines := append([]machine.Config{machine.MustParse("4c2b2l64r"), hostileBus()}, append(diffMachines(f), evalMachines(f)...)...)
	f.Fuzz(func(t *testing.T, text string, msel, iisel uint8) {
		graphs, err := ddg.ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		m := machines[int(msel)%len(machines)]
		ii := 1 + int(iisel)%24
		d := newDiffer(t)
		for _, g := range graphs {
			if g.NumNodes() == 0 || g.NumNodes() > 96 {
				continue
			}
			a := InitialScratch(g, m, ii, d.sc)
			want := initialReference(g, m, ii, d.ref, d.agg)
			if !slices.Equal(a.Cluster, want.Cluster) {
				t.Fatalf("Initial on %s at II %d: got %v, reference %v",
					m.Name, ii, a.Cluster, want.Cluster)
			}
			d.refine(g, m, ii+1, a, slices.Clone(edgeWeights(g, m, ii+1, d.sc)))
			checkEval(t, g, m, a, uniformWeights(g), ii)
		}
	})
}
