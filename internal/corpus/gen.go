package corpus

import (
	"fmt"
	"math/rand"

	"clusched/internal/ddg"
)

// The SCC-family generators build loops classified by their strongly
// connected components — the axis that determines whether II is bound by
// resources (acyclic: chains, trees) or by recurrences (cyclic). They are
// built strictly forward by node id (recurrence back-edges carry distance
// ≥ 1), so the distance-0 subgraph is acyclic by construction and every
// generated graph passes ddg.Validate.

// genChain builds independent acyclic dependence chains: per strand an
// induction address, a load, a run of ALU ops from the latency mix, and a
// store. Pressure raises the strand count (simultaneously live values) and
// the rate of long def-use cross-links between strands.
func genChain(name string, rng *rand.Rand, size int, sp Spec) *ddg.Graph {
	b := ddg.NewBuilder(name)
	nStrands := 2 + int(sp.Pressure*6)
	if nStrands > size/4 {
		nStrands = size / 4
	}
	if nStrands < 1 {
		nStrands = 1
	}
	per := size / nStrands
	if per < 4 {
		per = 4
	}
	// earlyVals holds one early value per finished strand; later strands
	// consume them with probability Pressure, stretching live ranges across
	// the whole block.
	var earlyVals []int
	for s := 0; s < nStrands; s++ {
		ad := b.Node(fmt.Sprintf("a%d", s), ddg.OpIAdd)
		b.Edge(ad, ad, 1)
		ld := b.Node(fmt.Sprintf("ld%d", s), ddg.OpLoad)
		b.Edge(ad, ld, 0)
		prev := ld
		nOps := per - 3
		if nOps < 1 {
			nOps = 1
		}
		for k := 0; k < nOps; k++ {
			v := b.Node(fmt.Sprintf("v%d_%d", s, k), sp.Ops.pick(rng))
			b.Edge(prev, v, 0)
			if k == nOps-1 && len(earlyVals) > 0 && rng.Float64() < sp.Pressure {
				// Cross-link from an earlier strand's early value: forward
				// by id, so distance 0 stays acyclic.
				b.Edge(earlyVals[rng.Intn(len(earlyVals))], v, 0)
			}
			if k == 0 {
				earlyVals = append(earlyVals, v)
			}
			prev = v
		}
		st := b.Node(fmt.Sprintf("st%d", s), ddg.OpStore)
		b.Edge(prev, st, 0)
		b.Edge(ad, st, 0)
	}
	sprinkleMem(b, rng, sp)
	return b.MustBuild()
}

// genTree builds a reduction tree: load leaves combined pairwise toward a
// single stored root. Pressure interpolates between a skewed (serial,
// short live ranges) and a balanced (wide, all leaves live at once)
// combine order.
func genTree(name string, rng *rand.Rand, size int, sp Spec) *ddg.Graph {
	b := ddg.NewBuilder(name)
	ad := b.Node("a", ddg.OpIAdd)
	b.Edge(ad, ad, 1)
	// Each leaf costs a load plus (roughly) one combine op.
	nLeaves := size / 2
	if nLeaves < 2 {
		nLeaves = 2
	}
	leaves := make([]int, nLeaves)
	for i := range leaves {
		ld := b.Node(fmt.Sprintf("ld%d", i), ddg.OpLoad)
		b.Edge(ad, ld, 0)
		leaves[i] = ld
	}
	balanced := rng.Float64() < sp.Pressure
	var root int
	if balanced {
		// Pairwise rounds: every leaf value is live until its round drains.
		level := leaves
		for len(level) > 1 {
			var next []int
			for i := 0; i+1 < len(level); i += 2 {
				v := b.Node("", sp.Ops.pick(rng))
				b.Edge(level[i], v, 0)
				b.Edge(level[i+1], v, 0)
				next = append(next, v)
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level = next
		}
		root = level[0]
	} else {
		// Left-leaning accumulation: one live partial sum.
		acc := leaves[0]
		for i := 1; i < len(leaves); i++ {
			v := b.Node("", sp.Ops.pick(rng))
			b.Edge(acc, v, 0)
			b.Edge(leaves[i], v, 0)
			acc = v
		}
		root = acc
	}
	st := b.Node("st", ddg.OpStore)
	b.Edge(root, st, 0)
	b.Edge(ad, st, 0)
	sprinkleMem(b, rng, sp)
	return b.MustBuild()
}

// genCyclic builds loop-carried recurrences: cyclic SCCs whose ops come
// from the latency mix (their length/distance ratio sets RecMII), each fed
// by a load and tapped into a store, plus acyclic filler strands.
func genCyclic(name string, rng *rand.Rand, size int, sp Spec) *ddg.Graph {
	b := ddg.NewBuilder(name)
	nRecs := 1 + rng.Intn(2)
	if sp.Pressure > 0.6 && size >= 24 {
		nRecs++
	}
	used := 0
	for r := 0; r < nRecs; r++ {
		// The cycle: head -> op -> ... -> op -> head at distance 1-2. Built
		// forward by id; only the closing back-edge carries distance.
		head := b.Node(fmt.Sprintf("r%d", r), sp.Ops.pick(rng))
		prev := head
		cyc := rng.Intn(3)
		for k := 0; k < cyc; k++ {
			v := b.Node(fmt.Sprintf("r%d_%d", r, k), sp.Ops.pick(rng))
			b.Edge(prev, v, 0)
			prev = v
			used++
		}
		dist := 1 + rng.Intn(2)
		b.Edge(prev, head, dist)
		// Feeder: fresh data enters the recurrence each iteration.
		ad := b.Node(fmt.Sprintf("a%d", r), ddg.OpIAdd)
		b.Edge(ad, ad, 1)
		ld := b.Node(fmt.Sprintf("ld%d", r), ddg.OpLoad)
		b.Edge(ad, ld, 0)
		inj := b.Node(fmt.Sprintf("in%d", r), sp.Ops.pick(rng))
		b.Edge(ld, inj, 0)
		// The injection reads the previous iteration's cycle output; wiring
		// it at distance 1 keeps node ids forward for distance-0 edges.
		b.Edge(prev, inj, 1)
		b.Edge(inj, head, dist)
		// Tap: the recurrence value is observable.
		st := b.Node(fmt.Sprintf("st%d", r), ddg.OpStore)
		b.Edge(prev, st, 0)
		b.Edge(ad, st, 0)
		used += 6
	}
	// Acyclic filler so the loop is not purely recurrence-bound.
	for used < size {
		ld := b.Node("", ddg.OpLoad)
		v := b.Node("", sp.Ops.pick(rng))
		st := b.Node("", ddg.OpStore)
		b.Edge(ld, v, 0)
		b.Edge(v, st, 0)
		used += 3
	}
	sprinkleMem(b, rng, sp)
	return b.MustBuild()
}

// sprinkleMem adds memory ordering edges (failed disambiguation) between
// random memory-op pairs at the spec's density. Same-iteration edges run
// forward by node id (keeping distance 0 acyclic); backward pairs carry
// distance 1.
func sprinkleMem(b *ddg.Builder, rng *rand.Rand, sp Spec) {
	var mems, stores []int
	for i := range b.NumNodes() {
		switch b.Op(i) {
		case ddg.OpLoad:
			mems = append(mems, i)
		case ddg.OpStore:
			mems = append(mems, i)
			stores = append(stores, i)
		}
	}
	if len(stores) == 0 || len(mems) < 2 {
		return
	}
	n := int(sp.MemEdges * float64(len(mems)))
	seen := make(map[[2]int]bool)
	for k := 0; k < n; k++ {
		// At least one endpoint is a store: load-load pairs never alias
		// observably.
		a := stores[rng.Intn(len(stores))]
		c := mems[rng.Intn(len(mems))]
		if a == c || seen[[2]int{a, c}] || seen[[2]int{c, a}] {
			continue
		}
		seen[[2]int{a, c}] = true
		lo, hi := a, c
		if lo > hi {
			lo, hi = hi, lo
		}
		if rng.Float64() < 0.5 {
			b.MemEdge(lo, hi, 0)
		} else {
			b.MemEdge(hi, lo, 1)
		}
	}
}
