package ddg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// opKinds lists every source-level operation kind, in declaration order.
var opKinds = func() []OpKind {
	var ops []OpKind
	for k := OpInvalid; k < numOpKinds; k++ {
		if k.Valid() {
			ops = append(ops, k)
		}
	}
	return ops
}()

func randomValidGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder("q")
	ops := opKinds
	ids := make([]int, n)
	for i := range ids {
		op := ops[rng.Intn(len(ops))]
		if op == OpStore && i < n-1 {
			op = OpFAdd // keep stores at the bottom so they have no data succs
		}
		ids[i] = b.Node("", op)
	}
	for i := 1; i < n; i++ {
		src := ids[rng.Intn(i)]
		if b.Graph().Nodes[src].Op == OpStore {
			b.MemEdge(src, ids[i], rng.Intn(2))
			continue
		}
		b.Edge(src, ids[i], rng.Intn(4)/3)
	}
	return b.MustBuild()
}

func TestQuickTextRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomValidGraph(rng, 2+int(nRaw%40))
		text, err := MarshalText(g)
		if err != nil {
			return false
		}
		g2, err := ParseOne(strings.NewReader(text))
		if err != nil {
			return false
		}
		text2, err := MarshalText(g2)
		return err == nil && text2 == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickTimingConsistency(t *testing.T) {
	// At an II large enough to clamp every loop-carried edge (II > max
	// latency 18), timing is driven by distance-0 edges alone and must be
	// internally consistent: ASAP ≤ ALAP everywhere and non-negative slack
	// on distance-0 edges. (At smaller IIs the ASAP pass folds in
	// loop-carried edges that the backward ALAP pass deliberately ignores,
	// so ASAP can exceed ALAP — a documented lower-bound approximation.)
	f := func(seed int64, nRaw, iiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomValidGraph(rng, 2+int(nRaw%30))
		ii := 19 + int(iiRaw%12)
		tm := g.ComputeTimingScratch(ii, &TimingScratch{})
		for v := range g.Nodes {
			if tm.ASAP[v] > tm.ALAP[v] {
				return false
			}
			if tm.ALAP[v]+g.Nodes[v].Op.Latency() > tm.Length {
				return false
			}
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.Dist == 0 && tm.Slack(g, e, ii) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickTopoOrderSound(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomValidGraph(rng, 2+int(nRaw%40))
		order, sorted := g.TopoOrder(&OrderScratch{})
		if len(order) != g.NumNodes() || sorted != len(order) {
			return false
		}
		pos := make([]int, g.NumNodes())
		for i, v := range order {
			pos[v] = i
		}
		for i := range g.Edges {
			e := &g.Edges[i]
			if e.Dist == 0 && pos[e.Src] >= pos[e.Dst] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// randomRecurrentGraph is a random valid loop with recurrences: a forward
// distance-0 spine plus loop-carried back edges and self-loops.
func randomRecurrentGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder("rec")
	for i := 0; i < n; i++ {
		b.Node("", OpIAdd)
	}
	for i := 1; i < n; i++ {
		b.Edge(rng.Intn(i), i, 0)
	}
	for k := rng.Intn(n); k > 0; k-- {
		if u, v := rng.Intn(n), rng.Intn(n); u >= v {
			b.Edge(u, v, 1+rng.Intn(2))
		}
	}
	return b.MustBuild()
}

func TestQuickSCCPartition(t *testing.T) {
	// The components partition the node set into the classes of mutual
	// reachability, in reverse topological order of the condensation, and
	// a component is cyclic exactly when its nodes reach themselves.
	var sc SCCScratch // one walk's memory across graphs, as the MII bound's
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomRecurrentGraph(rng, 1+int(nRaw%40))
		n := g.NumNodes()
		reach := make([][]bool, n) // reach[u][v]: a path of ≥ 1 edge u → v
		for u := range reach {
			reach[u] = make([]bool, n)
			queue := []int{u}
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for _, eid := range g.Out(x) {
					if w := g.Edges[eid].Dst; !reach[u][w] {
						reach[u][w] = true
						queue = append(queue, w)
					}
				}
			}
		}
		flat, off, cyclic := g.SCCs(&sc)
		if len(flat) != n || len(off) != len(cyclic)+1 {
			return false
		}
		comp := make([]int, n)
		for i := range comp {
			comp[i] = -1
		}
		for i := range cyclic {
			for _, v := range flat[off[i]:off[i+1]] {
				if comp[v] != -1 {
					return false
				}
				comp[v] = i
			}
		}
		for u := 0; u < n; u++ {
			if cyclic[comp[u]] != reach[u][u] {
				return false
			}
			for v := 0; v < n; v++ {
				same := u == v || reach[u][v] && reach[v][u]
				if same != (comp[u] == comp[v]) {
					return false
				}
				if reach[u][v] && comp[u] < comp[v] {
					return false // u reaches v, so v's component must come first
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
