package corpus

import (
	"fmt"
	"math/rand"

	"clusched/internal/ddg"
)

// Shape selects the structural family of a generated loop body. The
// families model the DDG structures that drive the paper's results: how
// partitionable the loop is, how many values must cross clusters, and how
// cheap their replication subgraphs are.
type Shape int

const (
	// ShapeBroadcast models stencil-style loops (tomcatv, swim, su2cor):
	// a handful of integer index/address computations near the roots feed
	// many floating-point chains. Partitioning spreads the chains across
	// clusters, so the shared integer values must be communicated — and
	// their replication subgraphs are tiny, making replication very
	// profitable.
	ShapeBroadcast Shape = iota
	// ShapeParallel models loops with independent work strands (mgrid):
	// the partitioner can place one strand per cluster with no
	// communications at all.
	ShapeParallel
	// ShapeReduction models recurrence-bound loops: one or more
	// floating-point reductions carried across iterations, plus feeder
	// loads.
	ShapeReduction
	// ShapeWide models very wide basic blocks with long-lived temporaries
	// (fpppp): high ILP, high register pressure, few communications.
	ShapeWide
	// ShapeChain models acyclic dependence chains: several independent
	// serial strands of ALU work between loads and a store, the SCC-free
	// case where II is resource-bound.
	ShapeChain
	// ShapeTree models reduction trees: leaves (loads and constants)
	// combined pairwise toward a single stored root — wide at the bottom,
	// serial at the top.
	ShapeTree
	// ShapeCyclic models loop-carried recurrences: one or more cyclic SCCs
	// whose length/distance ratio sets RecMII, plus acyclic feeder work.
	ShapeCyclic

	// NumShapes is the number of structural families.
	NumShapes = int(ShapeCyclic) + 1
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case ShapeBroadcast:
		return "broadcast"
	case ShapeParallel:
		return "parallel"
	case ShapeReduction:
		return "reduction"
	case ShapeWide:
		return "wide"
	case ShapeChain:
		return "chain"
	case ShapeTree:
		return "tree"
	case ShapeCyclic:
		return "cyclic"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

func pickFP(rng *rand.Rand) ddg.OpKind {
	switch r := rng.Float64(); {
	case r < 0.55:
		return ddg.OpFAdd
	case r < 0.93:
		return ddg.OpFMul
	default:
		return ddg.OpFDiv
	}
}

func pickInt(rng *rand.Rand) ddg.OpKind {
	if rng.Float64() < 0.85 {
		return ddg.OpIAdd
	}
	return ddg.OpIMul
}

// genBroadcast builds a stencil-like loop: nAddr integer address nodes (a
// short dependence chain) each broadcast to several floating-point chains;
// chains start at loads and end in stores.
func genBroadcast(name string, rng *rand.Rand, size int, pr Params) *ddg.Graph {
	b := ddg.NewBuilder(name)
	if pr.AddrHi < pr.AddrLo {
		pr.AddrHi = pr.AddrLo
	}
	nAddr := pr.AddrLo + rng.Intn(pr.AddrHi-pr.AddrLo+1)
	if nAddr < 1 {
		nAddr = 1
	}
	// Short chains (≈5 ops) keep the partition balanceable at chain
	// granularity; the shared address values then carry almost all of the
	// inter-cluster traffic, exactly the structure replication exploits.
	nChains := (size - nAddr) / 5
	if nChains < 4 {
		nChains = 4
	}

	// Induction-style integer backbone: i0 -> i1 -> ... with a loop-carried
	// self-dependence on the first (the induction variable).
	addr := make([]int, nAddr)
	for i := range addr {
		addr[i] = b.Node(fmt.Sprintf("i%d", i), pickInt(rng))
		if i > 0 {
			b.Edge(addr[i-1], addr[i], 0)
		}
	}
	b.Edge(addr[0], addr[0], 1) // induction update

	budget := size - nAddr
	if budget < 1 {
		// Degenerate sizes (≤ the sampled address count) must still build
		// at least one chain: the dead-value fixup below assumes the last
		// node is a store.
		budget = 1
	}
	perChain := budget / nChains
	if perChain < 3 {
		perChain = 3
	}
	// The backbone reads every address value but the last, and the
	// induction update reads the first; lastRead says a chain read the last.
	lastRead := nAddr == 1
	pickAddr := func(c int) int {
		var k int
		if !pr.Locality {
			k = rng.Intn(nAddr)
		} else {
			// Chains prefer a two-value window anchored by their index.
			k = (c%nAddr + rng.Intn(2)) % nAddr
		}
		lastRead = lastRead || k == nAddr-1
		return addr[k]
	}
	// prevLoad/prevHead let adjacent chains occasionally share a load or an
	// early fp value — the source of the (small) memory and fp replication
	// components in the paper's Fig. 10.
	prevLoad, prevHead, lastStore := -1, -1, -1
	for c := 0; c < nChains && budget > 0; c++ {
		n := perChain
		if n > budget {
			n = budget
		}
		budget -= n
		// Each chain: load(s) -> fp ops -> store; the load and several fp
		// ops consume broadcast address values, so a chain reads shared
		// integers wherever it lands.
		ld := b.Node(fmt.Sprintf("ld%d", c), ddg.OpLoad)
		b.Edge(pickAddr(c), ld, 0)
		prev := ld
		fpOps := n - 2
		if fpOps < 1 {
			fpOps = 1
		}
		for k := 0; k < fpOps; k++ {
			v := b.Node(fmt.Sprintf("f%d_%d", c, k), pickFP(rng))
			b.Edge(prev, v, 0)
			if rng.Float64() < pr.Sprinkle {
				b.Edge(pickAddr(c), v, 0)
			}
			if k == 0 {
				if prevLoad >= 0 && rng.Float64() < 0.15 {
					b.Edge(prevLoad, v, 0) // reuse the neighbor chain's load
				} else if prevHead >= 0 && rng.Float64() < 0.08 {
					b.Edge(prevHead, v, 0) // reuse its first fp value
				}
				prevHead = v
			}
			prev = v
		}
		st := b.Node(fmt.Sprintf("st%d", c), ddg.OpStore)
		b.Edge(prev, st, 0)
		b.Edge(pickAddr(c), st, 0) // store address
		prevLoad, lastStore = ld, st
	}
	// No address value may be dead (a real compiler would have deleted it);
	// route the last into the last store as an extra address input.
	if !lastRead {
		b.Edge(addr[nAddr-1], lastStore, 0)
	}
	return b.MustBuild()
}

// genParallel builds independent strands: load -> fp chain -> store, with
// private integer address computation per strand. Partitioners place one or
// more whole strands per cluster with zero communications.
func genParallel(name string, rng *rand.Rand, size int) *ddg.Graph {
	b := ddg.NewBuilder(name)
	nStrands := 4
	per := size / nStrands
	if per < 4 {
		per = 4
	}
	for s := 0; s < nStrands; s++ {
		ad := b.Node(fmt.Sprintf("a%d", s), ddg.OpIAdd)
		b.Edge(ad, ad, 1)
		ld := b.Node(fmt.Sprintf("ld%d", s), ddg.OpLoad)
		b.Edge(ad, ld, 0)
		prev := ld
		for k := 0; k < per-3; k++ {
			v := b.Node(fmt.Sprintf("f%d_%d", s, k), pickFP(rng))
			b.Edge(prev, v, 0)
			prev = v
		}
		st := b.Node(fmt.Sprintf("st%d", s), ddg.OpStore)
		b.Edge(prev, st, 0)
		b.Edge(ad, st, 0)
	}
	return b.MustBuild()
}

// genReduction builds one or two loop-carried floating-point reductions fed
// by loads, plus independent side work so the loop is not purely serial.
func genReduction(name string, rng *rand.Rand, size int) *ddg.Graph {
	b := ddg.NewBuilder(name)
	nRed := 1 + rng.Intn(2)
	used := 0
	for r := 0; r < nRed; r++ {
		// Multi-node recurrence: acc -> (chain of fp ops) -> acc at
		// distance 1-2, so the cycle is long enough that a careless cluster
		// split (or slot conflict) breaks it at its RecMII.
		acc := b.Node(fmt.Sprintf("acc%d", r), ddg.OpFAdd)
		prev := acc
		cyc := 1
		if rng.Float64() < 0.35 {
			cyc += 1 + rng.Intn(2)
		}
		for k := 0; k < cyc; k++ {
			v := b.Node(fmt.Sprintf("c%d_%d", r, k), pickFP(rng))
			b.Edge(prev, v, 0)
			prev = v
			used++
		}
		dist := 1 + rng.Intn(2)
		b.Edge(prev, acc, dist)
		ad := b.Node(fmt.Sprintf("a%d", r), ddg.OpIAdd)
		b.Edge(ad, ad, 1)
		ld := b.Node(fmt.Sprintf("ld%d", r), ddg.OpLoad)
		b.Edge(ad, ld, 0)
		mul := b.Node(fmt.Sprintf("m%d", r), ddg.OpFMul)
		b.Edge(ld, mul, 0)
		b.Edge(mul, acc, 0)
		used += 4
	}
	// Side strand to give the scheduler some slack-rich work.
	for used < size {
		ld := b.Node("", ddg.OpLoad)
		v := b.Node("", pickFP(rng))
		st := b.Node("", ddg.OpStore)
		b.Edge(ld, v, 0)
		b.Edge(v, st, 0)
		used += 3
	}
	return b.MustBuild()
}

// genWide builds a wide block in the style of fpppp: independent
// sub-expression blocks (private loads feeding a small tree of fp ops)
// whose results are all merged by a final reduction tree. Consumption is
// local to each block, so few values cross clusters; but every block result
// stays live until the combine tree drains it, so register pressure is the
// binding constraint.
func genWide(name string, rng *rand.Rand, size int) *ddg.Graph {
	b := ddg.NewBuilder(name)
	ad := b.Node("a", ddg.OpIAdd)
	b.Edge(ad, ad, 1)
	const blockSize = 6 // 2 loads + 3 fp + result
	nBlocks := (size - 4) / blockSize
	if nBlocks < 3 {
		nBlocks = 3
	}
	var results []int
	for k := 0; k < nBlocks; k++ {
		l1 := b.Node(fmt.Sprintf("ld%d_0", k), ddg.OpLoad)
		l2 := b.Node(fmt.Sprintf("ld%d_1", k), ddg.OpLoad)
		b.Edge(ad, l1, 0)
		b.Edge(ad, l2, 0)
		m1 := b.Node(fmt.Sprintf("b%d_m", k), ddg.OpFMul)
		b.Edge(l1, m1, 0)
		b.Edge(l2, m1, 0)
		x := b.Node(fmt.Sprintf("b%d_x", k), pickFP(rng))
		b.Edge(m1, x, 0)
		y := b.Node(fmt.Sprintf("b%d_y", k), pickFP(rng))
		b.Edge(x, y, 0)
		results = append(results, y)
	}
	// Combine tree: pairwise fadds; block results stay live until merged.
	for len(results) > 1 {
		var next []int
		for i := 0; i+1 < len(results); i += 2 {
			v := b.Node("", ddg.OpFAdd)
			b.Edge(results[i], v, 0)
			b.Edge(results[i+1], v, 0)
			next = append(next, v)
		}
		if len(results)%2 == 1 {
			next = append(next, results[len(results)-1])
		}
		results = next
	}
	st := b.Node("st", ddg.OpStore)
	b.Edge(results[0], st, 0)
	b.Edge(ad, st, 0)
	return b.MustBuild()
}

// Params tunes the generator per benchmark profile.
type Params struct {
	// AddrLo/AddrHi bound the number of shared integer address values in
	// broadcast loops; more shared values mean more communications.
	AddrLo, AddrHi int
	// Sprinkle is the probability that a chain operation consumes an extra
	// broadcast value (density of the sharing).
	Sprinkle float64
	// Locality biases each chain towards a small window of the address
	// values; high locality lets the partitioner co-locate chains with the
	// values they read, reducing communications (matters most on two
	// clusters).
	Locality bool
}

// DefaultParams is used when a profile does not override generation.
func DefaultParams() Params {
	return Params{AddrLo: 4, AddrHi: 7, Sprinkle: 0.5, Locality: false}
}

// Generate builds one loop body of the given shape and approximate size.
// The SCC families (chain/tree/cyclic) use DefaultSpec's op mix and
// pressure here; build a Spec to control their distributions.
func Generate(shape Shape, name string, rng *rand.Rand, size int, pr Params) *ddg.Graph {
	switch shape {
	case ShapeBroadcast:
		return genBroadcast(name, rng, size, pr)
	case ShapeParallel:
		return genParallel(name, rng, size)
	case ShapeReduction:
		return genReduction(name, rng, size)
	case ShapeWide:
		return genWide(name, rng, size)
	case ShapeChain:
		return genChain(name, rng, size, DefaultSpec().normalized())
	case ShapeTree:
		return genTree(name, rng, size, DefaultSpec().normalized())
	case ShapeCyclic:
		return genCyclic(name, rng, size, DefaultSpec().normalized())
	}
	panic(fmt.Sprintf("corpus: unknown shape %d", int(shape)))
}
