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

// diffMachines are the machines the differential tests run on: the six
// Table 1 configurations, the 4-cycle single bus, and a heterogeneous
// machine with classes some clusters cannot execute (the 1<<20 resource-II
// sentinel).
func diffMachines(t testing.TB) []machine.Config {
	t.Helper()
	hetero, err := machine.NewHetero(1, 2, 16, [][ddg.NumClasses]int{
		{2, 0, 1}, // integer datapath
		{0, 2, 1}, // FP datapath
		{1, 1, 1},
		{1, 1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(machine.PaperConfigs(), machine.MustParse("4c1b4l64r"), hetero)
}

// differ runs the partitioner and its oracles side by side, each on its own
// arena so neither sees the other's buffers.
type differ struct {
	t       *testing.T
	sc, ref *Scratch
	agg     map[[2]int]int

	coarsenings, refinements int
}

func newDiffer(t *testing.T) *differ {
	return &differ{t: t, sc: NewScratch(), ref: NewScratch(), agg: make(map[[2]int]int)}
}

// coarsen requires every field of the two macro sets to agree and returns
// the new one.
func (d *differ) coarsen(g *ddg.Graph, m machine.Config, ii int, w []int) *macroSet {
	d.t.Helper()
	d.coarsenings++
	got := coarsen(g, m, ii, w, d.sc)
	want := coarsenReference(g, m, ii, w, d.ref, d.agg)
	if got.n != want.n ||
		!slices.Equal(got.macroOf, want.macroOf) ||
		!slices.Equal(got.counts, want.counts) ||
		!slices.Equal(got.size, want.size) ||
		!slices.Equal(got.memFlat, want.memFlat) ||
		!slices.Equal(got.memOff, want.memOff) {
		d.t.Fatalf("%s on %s at II %d: coarsen differs from the reference\n got %+v\nwant %+v", g.Name, m.Name, ii, *got, *want)
	}
	return got
}

// assign requires the two placements of one macro set to agree.
func (d *differ) assign(g *ddg.Graph, m machine.Config, ii int, ms *macroSet, w []int) *Assignment {
	d.t.Helper()
	got := assignMacros(g, m, ii, ms, w, d.sc)
	if want := assignMacrosReference(g, m, ii, ms, w, d.ref); !slices.Equal(got.Cluster, want.Cluster) {
		d.t.Fatalf("%s on %s at II %d: assignMacros differs from the reference\n got %v\nwant %v", g.Name, m.Name, ii, got.Cluster, want.Cluster)
	}
	return got
}

// refine requires the two refinements of (a copy of) a to agree on every
// cluster, and returns the result.
func (d *differ) refine(g *ddg.Graph, m machine.Config, ii int, a *Assignment, w []int) *Assignment {
	d.t.Helper()
	d.refinements++
	got, want := a.Clone(), a.Clone()
	refine(g, m, ii, got, w, d.sc)
	refineReference(g, m, ii, want, w, d.ref)
	if !slices.Equal(got.Cluster, want.Cluster) {
		d.t.Fatalf("%s on %s at II %d: refine differs from the reference\n got %v\nwant %v",
			g.Name, m.Name, ii, got.Cluster, want.Cluster)
	}
	return got
}

// loop holds one graph to the oracles on one machine: coarsening and a
// first refinement at MII, MII+1 and MII+3 under slack-based and uniform
// weights, then the Fig. 2 chain — the MII partition re-refined at MII+1,
// +2 and +3, each from the one before — through the public entry points.
func (d *differ) loop(g *ddg.Graph, m machine.Config) {
	d.t.Helper()
	mii0 := mii.MII(g, m)
	uniform := uniformWeights(g)
	for _, ii := range []int{mii0, mii0 + 1, mii0 + 3} {
		for _, w := range [][]int{slices.Clone(edgeWeights(g, m, ii, d.sc)), uniform} {
			ms := d.coarsen(g, m, ii, w)
			d.refine(g, m, ii, d.assign(g, m, ii, ms, w), w)
		}
	}

	a := InitialScratch(g, m, mii0, d.sc)
	want := initialReference(g, m, mii0, d.ref, d.agg)
	for k := 0; ; k++ {
		if !slices.Equal(a.Cluster, want.Cluster) {
			d.t.Fatalf("%s on %s: chain step MII+%d differs from the reference\n got %v\nwant %v",
				g.Name, m.Name, k, a.Cluster, want.Cluster)
		}
		if k == 3 {
			break
		}
		ii := mii0 + k + 1
		a = RefineScratch(g, m, ii, a, d.sc)
		want = want.Clone()
		refineReference(g, m, ii, want, edgeWeights(g, m, ii, d.ref), d.ref)
	}
	if u := InitialUniform(g, m, mii0); !slices.Equal(u.Cluster, d.initialUniformReference(g, m, mii0).Cluster) {
		d.t.Fatalf("%s on %s: InitialUniform differs from the reference", g.Name, m.Name)
	}
}

func (d *differ) initialUniformReference(g *ddg.Graph, m machine.Config, ii int) *Assignment {
	w := uniformWeights(g)
	a := assignMacrosReference(g, m, ii, coarsenReference(g, m, ii, w, d.ref, d.agg), w, d.ref)
	refineReference(g, m, ii, a, w, d.ref)
	return a
}

// TestPartitionMatchesReferenceOnSuite holds refine and coarsen to their
// oracles over the pinned 678-loop suite on every differential machine.
func TestPartitionMatchesReferenceOnSuite(t *testing.T) {
	d := newDiffer(t)
	for _, m := range diffMachines(t) {
		for _, l := range workload.SPECfp95() {
			d.loop(l.Graph, m)
		}
	}
	t.Logf("%d coarsenings and %d refinements identical", d.coarsenings, d.refinements)
}

// TestPartitionMatchesReferenceOnCorpus does the same over generated loops
// (cyclic SCCs, trees, chains, parallel data edges, data self-loops), on a
// 2-cluster, a 4-cluster and the heterogeneous machine.
func TestPartitionMatchesReferenceOnCorpus(t *testing.T) {
	loops := 2048
	if testing.Short() {
		loops = 256
	}
	all := diffMachines(t)
	machines := []machine.Config{all[0], all[4], all[len(all)-1]}
	d := newDiffer(t)
	spec := corpus.DefaultSpec()
	for i := 0; i < loops; i++ {
		g := spec.Loop(i)
		for _, m := range machines {
			d.loop(g, m)
		}
	}
	t.Logf("%d coarsenings and %d refinements identical", d.coarsenings, d.refinements)
}
