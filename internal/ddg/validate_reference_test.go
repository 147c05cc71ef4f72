package ddg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestValidateMatchesReference: on random graphs, cyclic at distance 0 or
// not, Validate's cycle check (TopoOrder, then a walk back among the nodes
// it could not free) refuses exactly the graphs the retired depth-first
// check refused, and the node it names lies on a distance-0 cycle.
func TestValidateMatchesReference(t *testing.T) {
	cyclic := 0
	f := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw%12)
		b := NewBuilder("v")
		for range n {
			b.Node("", OpIAdd)
		}
		for range int(mRaw % 24) {
			b.Edge(rng.Intn(n), rng.Intn(n), rng.Intn(3)/2)
		}
		g := b.Graph()
		ref := g.checkZeroDistanceAcyclicReference(&validateScratchReference{})
		v := g.zeroDistanceCycle(&OrderScratch{})
		if (ref == nil) != (v < 0) {
			t.Logf("seed %d: cycle check named %d, retired said %v", seed, v, ref)
			return false
		}
		if v < 0 {
			return g.Validate() == nil
		}
		cyclic++
		if !onZeroDistanceCycle(g, v) {
			t.Logf("seed %d: node %d is on no distance-0 cycle", seed, v)
			return false
		}
		err := g.Validate()
		return err != nil && strings.Contains(err.Error(), fmt.Sprintf("zero-distance cycle through node %d", v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if cyclic == 0 {
		t.Fatal("no random graph had a distance-0 cycle")
	}
}

// onZeroDistanceCycle reports whether v reaches itself over distance-0
// edges.
func onZeroDistanceCycle(g *Graph, v int) bool {
	seen := make([]bool, len(g.Nodes))
	stack := []int{v}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[u] {
			x := &g.Edges[e]
			if x.Dist != 0 {
				continue
			}
			if x.Dst == v {
				return true
			}
			if !seen[x.Dst] {
				seen[x.Dst] = true
				stack = append(stack, x.Dst)
			}
		}
	}
	return false
}
