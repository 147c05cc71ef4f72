package replic

import (
	"math/rand"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/sched"
)

func randomLoop(rng *rand.Rand, n int) *ddg.Graph {
	b := ddg.NewBuilder("rand")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Node("", ops[rng.Intn(len(ops))])
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			b.Edge(ids[rng.Intn(i)], ids[i], 0)
		}
	}
	return b.MustBuild()
}

func placed(g *ddg.Graph, m machine.Config, ii int) *sched.Placement {
	return sched.NewPlacement(g, partition.InitialScratch(g, m, ii, partition.NewScratch()))
}

// replicated sums the instances a run added, across classes.
func replicated(st Stats) int {
	n := 0
	for _, c := range st.Replicated {
		n += c
	}
	return n
}

// clusterResII is the largest per-cluster resource II of the placement on
// m, by the bound the partitioner uses.
func clusterResII(p *sched.Placement, m machine.Config) int {
	best := 1
	for c, counts := range p.ClassCounts() {
		best = max(best, mii.ClusterResIIAt(counts, m, c))
	}
	return best
}

func TestRunNeverIncreasesComms(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 60; trial++ {
		g := randomLoop(rng, 6+rng.Intn(30))
		ii := 2 + rng.Intn(6)
		p := placed(g, m, ii)
		before := p.Comms()
		st, _ := RunScratch(p, m, ii, NewScratch())
		if st.CommsBefore != before {
			t.Fatalf("trial %d: CommsBefore=%d, want %d", trial, st.CommsBefore, before)
		}
		if after := p.Comms(); after > before {
			t.Fatalf("trial %d: comms grew %d -> %d", trial, before, after)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestRunStopsAtBusCapacityNoOverReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 60; trial++ {
		g := randomLoop(rng, 8+rng.Intn(24))
		ii := 2 + rng.Intn(8)
		p := placed(g, m, ii)
		st, ok := RunScratch(p, m, ii, NewScratch())
		if !ok {
			continue
		}
		after := p.Comms()
		// Resolved: comms fit the bus. No over-replication: removing fewer
		// communications would not have sufficed, i.e. we removed exactly
		// max(0, before-buscap)... steps can exceed that only when one
		// replication incidentally silenced another communication.
		if after > m.BusComs(ii) {
			t.Fatalf("trial %d: ok but %d comms > capacity %d", trial, after, m.BusComs(ii))
		}
		if extraBefore := st.CommsBefore - m.BusComs(ii); extraBefore > 0 {
			if removed := st.CommsBefore - after; removed > extraBefore+2 {
				t.Fatalf("trial %d: removed %d comms, extra was only %d", trial, removed, extraBefore)
			}
		} else if st.Steps != 0 {
			t.Fatalf("trial %d: replicated %d subgraphs with no bus overload", trial, st.Steps)
		}
	}
}

func TestRunFeasibilityGuardRespectsResources(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 60; trial++ {
		g := randomLoop(rng, 8+rng.Intn(24))
		ii := 2 + rng.Intn(6)
		p := placed(g, m, ii)
		resBefore := clusterResII(p, m)
		if resBefore > ii {
			continue // partition itself is oversubscribed; guard is per-step
		}
		RunScratch(p, m, ii, NewScratch())
		if res := clusterResII(p, m); res > ii {
			t.Fatalf("trial %d: replication pushed cluster ResII to %d > II=%d", trial, res, ii)
		}
	}
}

func TestScheduleAfterRunAlwaysVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	configs := []machine.Config{
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		machine.MustParse("4c2b4l64r"),
	}
	for trial := 0; trial < 60; trial++ {
		m := configs[trial%len(configs)]
		g := randomLoop(rng, 6+rng.Intn(24))
		ii := 2 + rng.Intn(8)
		p := placed(g, m, ii)
		RunScratch(p, m, ii, NewScratch())
		for try := ii; try < ii+64; try++ {
			s, err := sched.ScheduleLoopScratch(p, m, try, false, sched.Options{}, sched.NewScratch())
			if err != nil {
				continue
			}
			if verr := sched.Verify(s); verr != nil {
				t.Fatalf("trial %d: %v", trial, verr)
			}
			break
		}
	}
}

func TestSubgraphCutsAtCommunicatedParents(t *testing.T) {
	// chain: a -> b -> c, a and c communicated, b not: subgraph(c) = {c, b}
	// because a's value is already on the bus.
	b := ddg.NewBuilder("cut")
	a := b.Node("a", ddg.OpIAdd)
	bb := b.Node("b", ddg.OpIAdd)
	c := b.Node("c", ddg.OpIAdd)
	xa := b.Node("xa", ddg.OpIAdd) // remote consumer of a
	xc := b.Node("xc", ddg.OpIAdd) // remote consumer of c
	b.Edge(a, bb, 0)
	b.Edge(bb, c, 0)
	b.Edge(a, xa, 0)
	b.Edge(c, xc, 0)
	g := b.MustBuild()
	asg := &partition.Assignment{Cluster: []int{0, 0, 0, 1, 1}, K: 2}
	p := sched.NewPlacement(g, asg)
	if p.Comms() != 2 {
		t.Fatalf("comms = %d, want 2", p.Comms())
	}
	sub, _ := subgraphOf(p, c, p.CommTargets(c), NewScratch())
	if !sameSet(namesOf(g, sub), "c", "b") {
		t.Errorf("subgraph(c) = %v, want {c,b}", namesOf(g, sub))
	}
}

func TestStoresNeverReplicatedOrCommunicated(t *testing.T) {
	b := ddg.NewBuilder("st")
	l := b.Node("l", ddg.OpLoad)
	s := b.Node("s", ddg.OpStore)
	l2 := b.Node("l2", ddg.OpLoad)
	x := b.Node("x", ddg.OpFAdd)
	b.Edge(l, s, 0)
	b.MemEdge(s, l2, 0) // memory dependence crossing clusters: no comm
	b.Edge(l2, x, 0)
	g := b.MustBuild()
	asg := &partition.Assignment{Cluster: []int{0, 0, 1, 1}, K: 2}
	p := sched.NewPlacement(g, asg)
	if p.Comms() != 0 {
		t.Fatalf("comms = %d, want 0 (memory is centralized)", p.Comms())
	}
	if p.NeedsComm(s) {
		t.Error("store flagged as communicated")
	}
}

func TestLengthReplicateShortensCriticalPath(t *testing.T) {
	// Fig. 11 shape: a chain A->D->E where A lives in another cluster; a
	// local copy of A removes the bus latency from the critical path.
	b := ddg.NewBuilder("fig11")
	a := b.Node("A", ddg.OpIAdd)
	bb := b.Node("B", ddg.OpIAdd)
	c := b.Node("C", ddg.OpIAdd)
	d := b.Node("D", ddg.OpIAdd)
	e := b.Node("E", ddg.OpIAdd)
	f := b.Node("F", ddg.OpIAdd)
	b.Edge(a, bb, 0)
	b.Edge(bb, c, 0)
	b.Edge(a, d, 0) // cross-cluster critical edge
	b.Edge(d, e, 0)
	b.Edge(a, f, 0)
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	asg := &partition.Assignment{Cluster: []int{0, 0, 0, 1, 1, 2}, K: 4}
	p := sched.NewPlacement(g, asg)

	sc, ssc := NewScratch(), sched.NewScratch()
	length := func() int {
		t.Helper()
		_, tm, err := ssc.InstanceTiming(p, m, 4)
		if err != nil {
			t.Fatal(err)
		}
		return tm.Length
	}
	before := length()
	steps := LengthReplicate(p, m, 4, 1, sc, ssc)
	if steps != 1 {
		t.Fatalf("steps = %d, want 1", steps)
	}
	after := length()
	if after >= before {
		t.Errorf("length %d -> %d, want shorter", before, after)
	}
	// Partial replication (Fig. 11): one step copies A only into the
	// cluster where the latency hurt; the communication itself survives
	// because F in cluster 2 still reads A from the bus.
	if !p.NeedsComm(a) {
		t.Error("comm of A disappeared; partial replication expected")
	}
	// Further steps may replicate into the remaining consumer cluster and
	// eventually silence the communication; lengths must keep improving.
	more := LengthReplicate(p, m, 4, 8, sc, ssc)
	final := length()
	if more > 0 && final >= after {
		t.Errorf("extra steps did not shorten: %d -> %d", after, final)
	}
}

func TestMacroReplicatesAtLeastAsMuch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := machine.MustParse("4c1b2l64r")
	moreOrEqual, trials := 0, 0
	for trial := 0; trial < 80; trial++ {
		g := randomLoop(rng, 10+rng.Intn(24))
		ii := 2 + rng.Intn(4)
		p1 := placed(g, m, ii)
		p2 := p1.Clone()
		st1, ok1 := RunScratch(p1, m, ii, NewScratch())
		st2, ok2 := RunMacro(p2, m, ii, NewScratch())
		if !ok1 || !ok2 || st1.Steps == 0 {
			continue
		}
		trials++
		if replicated(st2) >= replicated(st1) {
			moreOrEqual++
		}
	}
	if trials == 0 {
		t.Skip("no trials exercised replication")
	}
	if float64(moreOrEqual) < 0.8*float64(trials) {
		t.Errorf("macro replication cheaper than greedy in %d/%d trials; expected it to replicate at least as much nearly always",
			trials-moreOrEqual, trials)
	}
}

func TestRunReportsFailureWhenInfeasible(t *testing.T) {
	// Saturate a cluster so no replication fits: II=1, every cluster full.
	b := ddg.NewBuilder("full")
	var prod []int
	for c := 0; c < 2; c++ {
		for i := 0; i < 1; i++ {
			prod = append(prod, b.Node("", ddg.OpIAdd))
		}
	}
	// Cross consumers both ways: two comms, capacity at II=1 is (1/2)*1=0.
	x := b.Node("x", ddg.OpIAdd)
	y := b.Node("y", ddg.OpIAdd)
	b.Edge(prod[0], y, 0)
	b.Edge(prod[1], x, 0)
	b.Edge(prod[0], x, 0)
	b.Edge(prod[1], y, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	asg := &partition.Assignment{Cluster: []int{0, 1, 0, 1}, K: 2}
	p := sched.NewPlacement(g, asg)
	// Both values consumed in both clusters: replication of either would
	// leave the other comm; at II=1 int capacity is 2 per cluster (2 FUs),
	// four ints per cluster would not fit.
	_, ok := RunScratch(p, m, 1, NewScratch())
	if ok {
		// Even if replication "succeeds", comms must fit zero capacity,
		// i.e. all comms removed; verify.
		if p.Comms() > m.BusComs(1) {
			t.Error("Run returned ok with oversubscribed bus")
		}
	}
}
