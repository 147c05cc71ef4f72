package partition

import (
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/workload"
)

// benchMachines are the two configurations the package benchmarks run on:
// the machine the bench ledger reports and the bus-starved one, where
// refinement works hardest.
var benchMachines = []string{"4c2b2l64r", "4c1b2l64r"}

// benchCase is one loop of the suite with everything a partitioner stage
// needs at the loop's MII on one machine.
type benchCase struct {
	g  *ddg.Graph
	ii int
	w  []int       // edgeWeights at ii
	a0 *Assignment // assignMacros' placement, the input of the first refine
}

// benchCases prepares the 678-loop suite for machine m. One benchmark op is
// one loop, so ns/op compares with the bench ledger's per-loop rows.
func benchCases(m machine.Config) []benchCase {
	sc := NewScratch()
	var cases []benchCase
	for _, l := range workload.SPECfp95() {
		g := l.Graph
		ii := mii.MII(g, m)
		w := append([]int(nil), edgeWeights(g, m, ii, sc)...)
		a0 := assignMacros(g, m, ii, coarsen(g, m, ii, w, sc), w, sc).Clone() // the arena's slot is reused two loops on
		cases = append(cases, benchCase{g: g, ii: ii, w: w, a0: a0})
	}
	return cases
}

// benchPerLoop runs f once per loop of the suite, round robin, on each
// benchmark machine with one warmed Scratch.
func benchPerLoop(b *testing.B, f func(c *benchCase, m machine.Config, sc *Scratch)) {
	for _, name := range benchMachines {
		m := machine.MustParse(name)
		cases := benchCases(m)
		b.Run(name, func(b *testing.B) {
			sc := NewScratch()
			for i := range cases {
				f(&cases[i], m, sc)
			}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				f(&cases[i%len(cases)], m, sc)
			}
		})
	}
}

func BenchmarkInitial(b *testing.B) {
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		InitialScratch(c.g, m, c.ii, sc)
	})
}

func BenchmarkInitialReference(b *testing.B) {
	agg := make(map[[2]int]int)
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		initialReference(c.g, m, c.ii, sc, agg)
	})
}

// BenchmarkRefine is refine alone, on the placement assignMacros hands it at
// the loop's MII (the longest refinement of a compilation).
func BenchmarkRefine(b *testing.B) {
	var buf Assignment
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		buf.Cluster, buf.K = append(buf.Cluster[:0], c.a0.Cluster...), c.a0.K
		refine(c.g, m, c.ii, &buf, c.w, sc)
	})
}

func BenchmarkRefineReference(b *testing.B) {
	var buf Assignment
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		buf.Cluster, buf.K = append(buf.Cluster[:0], c.a0.Cluster...), c.a0.K
		refineReference(c.g, m, c.ii, &buf, c.w, sc)
	})
}

func BenchmarkCoarsen(b *testing.B) {
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		coarsen(c.g, m, c.ii, c.w, sc)
	})
}

func BenchmarkCoarsenReference(b *testing.B) {
	agg := make(map[[2]int]int)
	benchPerLoop(b, func(c *benchCase, m machine.Config, sc *Scratch) {
		coarsenReference(c.g, m, c.ii, c.w, sc, agg)
	})
}

// TestInitialSteadyStateAllocs pins what a partitioning call costs the
// allocator on a warmed arena: nothing — every working buffer and the
// Assignment it returns live in the Scratch. The partitioner holds no pool,
// so the mean AllocsPerRun reports is the steady state.
func TestInitialSteadyStateAllocs(t *testing.T) {
	m := machine.MustParse("4c2b2l64r")
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
	ii := mii.MII(g, m)
	sc := NewScratch()
	a := InitialScratch(g, m, ii, sc).Clone() // kept across more than two calls
	if n := testing.AllocsPerRun(50, func() { InitialScratch(g, m, ii, sc) }); n != 0 {
		t.Errorf("InitialScratch on a warmed arena: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() { RefineScratch(g, m, ii+1, a, sc) }); n != 0 {
		t.Errorf("RefineScratch on a warmed arena: %v allocations, want 0", n)
	}

	// The 29-node loop never gets stuck in matching, so it says nothing
	// about forceMerge, which about one suite loop in one does reach: pin
	// the first one whose coarsening leaves the size sorter used.
	for _, l := range workload.SPECfp95() {
		g, ii, sc := l.Graph, mii.MII(l.Graph, m), NewScratch()
		InitialScratch(g, m, ii, sc)
		if sc.bySize.ids == nil {
			continue
		}
		if n := testing.AllocsPerRun(50, func() { InitialScratch(g, m, ii, sc) }); n != 0 {
			t.Errorf("InitialScratch through forceMerge (%s) on a warmed arena: %v allocations, want 0", g.Name, n)
		}
		return
	}
	t.Error("no suite loop reaches forceMerge")
}
