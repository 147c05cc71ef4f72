package replic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/sched"
)

func TestWeightSharingHalvesSharedTerms(t *testing.T) {
	// Two communicated values sharing one ancestor: the ancestor's term is
	// split between the two subgraphs in the shared target cluster.
	b := ddg.NewBuilder("share")
	a := b.Node("a", ddg.OpIAdd)
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(a, u, 0)
	b.Edge(a, v, 0)
	cu := b.Node("cu", ddg.OpIAdd) // remote consumers, same cluster
	cv := b.Node("cv", ddg.OpIAdd)
	b.Edge(u, cu, 0)
	b.Edge(v, cv, 0)
	g := b.MustBuild()
	m := machine.Config{Name: "t", Clusters: 2, Buses: 1, BusLatency: 1, Regs: 64,
		FU: [ddg.NumClasses]int{4, 4, 4}}
	asg := &partition.Assignment{Cluster: []int{0, 0, 0, 1, 1}, K: 2}
	p := sched.NewPlacement(g, asg)
	cands := candidates(p, m, 2, NewScratch())
	if len(cands) != 2 {
		t.Fatalf("%d candidates, want 2", len(cands))
	}
	// Each subgraph is {com, a}; usage(c1)=2, extra=2 -> term (2+2)/8 = 0.5
	// per node; a's term halves to 0.25; no removals (a feeds both locals…
	// u and v die: u's only consumer cu is remote -> removable, same for v.
	// removable = {u} for Su (credit 1/8), {v} for Sv.
	want := 0.5 + 0.25 - 0.125
	for _, c := range cands {
		if math.Abs(c.Weight-want) > 1e-9 {
			t.Errorf("weight(%s) = %v, want %v", g.NodeName(c.Com), c.Weight, want)
		}
	}
}

func TestFeasibilityGuardBlocksOversizedSubgraph(t *testing.T) {
	// A communicated value whose subgraph is a long fp chain cannot be
	// replicated when the target cluster has no fp headroom.
	b := ddg.NewBuilder("big")
	prev := -1
	var chain []int
	for i := 0; i < 6; i++ {
		v := b.Node("", ddg.OpFMul)
		if prev >= 0 {
			b.Edge(prev, v, 0)
		}
		chain = append(chain, v)
		prev = v
	}
	remote := b.Node("r", ddg.OpFMul)
	b.Edge(prev, remote, 0)
	// Fill the remote cluster with its own fp work.
	var fill []int
	for i := 0; i < 6; i++ {
		fill = append(fill, b.Node("", ddg.OpFAdd))
	}
	_ = fill
	g := b.MustBuild()
	m := machine.Config{Name: "t", Clusters: 2, Buses: 1, BusLatency: 2, Regs: 64,
		FU: [ddg.NumClasses]int{1, 1, 1}}
	cl := make([]int, g.NumNodes())
	for _, v := range chain {
		cl[v] = 0
	}
	cl[remote] = 1
	for _, v := range fill {
		cl[v] = 1
	}
	p := sched.NewPlacement(g, &partition.Assignment{Cluster: cl, K: 2})
	// At II=7 cluster 1 holds 7 fp ops (6 fill + remote): replicating the
	// 6-node chain would need 13 > 7.
	cands := candidates(p, m, 7, NewScratch())
	if len(cands) != 1 {
		t.Fatalf("%d candidates", len(cands))
	}
	if feasible(p, m, 7, cands[0], NewScratch()) {
		t.Error("oversized replication reported feasible")
	}
	_, ok := RunScratch(p, m, 7, NewScratch())
	if ok && p.Comms() > m.BusComs(7) {
		t.Error("Run claimed success with oversubscribed bus")
	}
}

func TestRemovableBlockedByLocalStore(t *testing.T) {
	// com feeds a local store: never removable.
	b := ddg.NewBuilder("st")
	u := b.Node("u", ddg.OpIAdd)
	st := b.Node("st", ddg.OpStore)
	r := b.Node("r", ddg.OpIAdd)
	b.Edge(u, st, 0)
	b.Edge(u, r, 0)
	g := b.MustBuild()
	p := sched.NewPlacement(g, &partition.Assignment{Cluster: []int{0, 0, 1}, K: 2})
	rem := removableOf(p, u, NewScratch())
	if len(rem) != 0 {
		t.Errorf("removable = %v, want none (local store consumes u)", rem)
	}
}

func TestQuickReplicationInvariants(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	f := func(seed int64, nRaw, iiRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + int(nRaw%28)
		ii := 2 + int(iiRaw%8)
		g := randomLoop(rng, n)
		p := placed(g, m, ii)
		before := p.Comms()
		resBefore := clusterResII(p, m)
		st, ok := RunScratch(p, m, ii, NewScratch())
		// Invariants: comms never grow; placement stays valid; the
		// feasibility guard keeps cluster resources within ii whenever they
		// started within ii; success implies bus fits.
		if p.Comms() > before || p.Validate() != nil {
			return false
		}
		if resBefore <= ii && clusterResII(p, m) > ii {
			return false
		}
		if ok && p.Comms() > m.BusComs(ii) {
			return false
		}
		return st.CommsBefore == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestCandidateSubgraphIncludesCom(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := machine.MustParse("4c2b2l64r")
	for trial := 0; trial < 30; trial++ {
		g := randomLoop(rng, 8+rng.Intn(20))
		p := placed(g, m, 4)
		for _, c := range candidates(p, m, 4, NewScratch()) {
			found := false
			for _, v := range c.Subgraph {
				if v == c.Com {
					found = true
				}
				// Every subgraph member is a (transitive) ancestor of com
				// or com itself, and no member is itself communicated
				// except com.
				if v != c.Com && p.NeedsComm(v) {
					t.Fatalf("trial %d: communicated node %d inside subgraph of %d", trial, v, c.Com)
				}
			}
			if !found {
				t.Fatalf("trial %d: subgraph of %d misses com", trial, c.Com)
			}
			if c.Targets.Empty() {
				t.Fatalf("trial %d: empty target set for %d", trial, c.Com)
			}
		}
	}
}

func TestLengthReplicateNoOpOnUnified(t *testing.T) {
	g := randomLoop(rand.New(rand.NewSource(1)), 12)
	m := machine.Unified(64)
	p := placed(g, m, 4)
	if steps := LengthReplicate(p, m, 4, 8, NewScratch(), sched.NewScratch()); steps != 0 {
		t.Errorf("length replication on unified machine did %d steps", steps)
	}
}

// TestFeasibleRefusesClassWithoutUnits: replicating an operation into a
// cluster with no unit of its class is refused at any interval.
func TestFeasibleRefusesClassWithoutUnits(t *testing.T) {
	b := ddg.NewBuilder("nofp")
	f := b.Node("f", ddg.OpFMul)
	a := b.Node("a", ddg.OpIAdd)
	b.Edge(f, a, 0)
	g := b.MustBuild()
	noFP := [ddg.NumClasses]int{1, 1, 1}
	noFP[ddg.ClassFP] = 0
	m := machine.Config{Name: "t", Clusters: 2, Buses: 1, BusLatency: 2, Regs: 64,
		FU: [ddg.NumClasses]int{1, 1, 1}, Hetero: [][ddg.NumClasses]int{{1, 1, 1}, noFP}}
	p := sched.NewPlacement(g, &partition.Assignment{Cluster: []int{0, 1}, K: 2})
	for _, ii := range []int{1, 4, 1000} {
		cands := candidates(p, m, ii, NewScratch())
		if len(cands) != 1 || cands[0].Com != f {
			t.Fatalf("II=%d: candidates %v, want the one of f", ii, cands)
		}
		if feasible(p, m, ii, cands[0], NewScratch()) {
			t.Errorf("II=%d: replicating an fmul into a cluster without fp units reported feasible", ii)
		}
	}
}
