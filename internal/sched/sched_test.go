package sched

import (
	"math/rand"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
)

func mustSchedule(t *testing.T, p *Placement, m machine.Config, ii int) *Schedule {
	t.Helper()
	s, err := ScheduleLoopScratch(p, m, ii, false, Options{}, NewScratch())
	if err != nil {
		t.Fatalf("schedule at II=%d: %v", ii, err)
	}
	if err := Verify(s); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return s
}

// numCopies counts the copy instances (communications) of ig.
func numCopies(ig *IGraph) int {
	n := 0
	for _, in := range ig.Inst {
		if in.IsCopy {
			n++
		}
	}
	return n
}

func placementOn(g *ddg.Graph, m machine.Config, clusters []int) *Placement {
	a := &partition.Assignment{Cluster: clusters, K: m.Clusters}
	return NewPlacement(g, a)
}

func TestClusterSetOps(t *testing.T) {
	var s ClusterSet
	s = s.Add(0).Add(3)
	if !s.Has(0) || !s.Has(3) || s.Has(1) {
		t.Errorf("set = %b", s)
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.Clusters(); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("Clusters = %v", got)
	}
	if s.Remove(0).Has(0) {
		t.Error("Remove failed")
	}
	u := s.Union(ClusterSet(0).Add(1))
	if u.Count() != 3 {
		t.Errorf("Union count = %d", u.Count())
	}
	if d := u.Minus(s); d.Count() != 1 || !d.Has(1) {
		t.Errorf("Minus = %v", d.Clusters())
	}
	if !ClusterSet(0).Empty() || s.Empty() {
		t.Error("Empty wrong")
	}
}

func TestSingleClusterChainSchedulesAtASAP(t *testing.T) {
	b := ddg.NewBuilder("chain")
	l := b.Node("l", ddg.OpLoad)
	a := b.Node("a", ddg.OpFAdd)
	st := b.Node("s", ddg.OpStore)
	b.Edge(l, a, 0)
	b.Edge(a, st, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	p := placementOn(g, m, []int{0, 0, 0})
	s := mustSchedule(t, p, m, 1)
	if s.Length != 7 { // 0+2 -> 2+3 -> 5+2
		t.Errorf("Length = %d, want 7", s.Length)
	}
	if s.SC != 7 {
		t.Errorf("SC = %d, want 7", s.SC)
	}
}

func TestCrossClusterEdgeInsertsCopy(t *testing.T) {
	b := ddg.NewBuilder("x")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if ig.NumInstances() != 3 {
		t.Fatalf("instances = %d, want 3 (u, v, copy)", ig.NumInstances())
	}
	if numCopies(ig) != 1 {
		t.Fatalf("copies = %d, want 1", numCopies(ig))
	}
	s, err := RunScratch(ig, 2, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
	// v must issue at least lat(u)+busLat = 1+2 = 3 cycles in.
	vi := ig.InstanceAt(v, 1)
	if s.Time[vi] < 3 {
		t.Errorf("v issues at %d, want >= 3", s.Time[vi])
	}
}

func TestSameClusterEdgeHasNoCopy(t *testing.T) {
	b := ddg.NewBuilder("x")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 0})
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if numCopies(ig) != 0 {
		t.Errorf("copies = %d, want 0", numCopies(ig))
	}
}

func TestBroadcastSingleCopyForTwoConsumers(t *testing.T) {
	// u in cluster 0, consumers in clusters 1 and 2: one copy suffices.
	b := ddg.NewBuilder("bc")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	w := b.Node("w", ddg.OpIAdd)
	b.Edge(u, v, 0)
	b.Edge(u, w, 0)
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	p := placementOn(g, m, []int{0, 1, 2})
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if numCopies(ig) != 1 {
		t.Errorf("copies = %d, want 1 (broadcast bus)", numCopies(ig))
	}
	if p.Comms() != 1 {
		t.Errorf("Comms = %d, want 1", p.Comms())
	}
}

func TestReplicaSatisfiesConsumerWithoutCopy(t *testing.T) {
	b := ddg.NewBuilder("r")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	p.Replicas[u] = p.Replicas[u].Add(1) // replicate u into cluster 1
	if p.NeedsComm(u) {
		t.Fatal("u still needs comm after replication")
	}
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if numCopies(ig) != 0 {
		t.Errorf("copies = %d, want 0", numCopies(ig))
	}
	if ig.NumInstances() != 3 { // u@0, u@1, v@1
		t.Errorf("instances = %d, want 3", ig.NumInstances())
	}
	s, err := RunScratch(ig, 1, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s); err != nil {
		t.Fatal(err)
	}
}

func TestRemovedHomeInstanceInvariant(t *testing.T) {
	b := ddg.NewBuilder("r")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	// Remove u's home while it is still communicated: invalid.
	p.Replicas[u] = ClusterSet(0).Add(0)
	p.Replicas[u] = p.Replicas[u].Remove(0).Add(1)
	// u now only in cluster 1 where its consumer is: valid (comm gone).
	if err := p.Validate(); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	// But emptying it entirely must fail.
	p.Replicas[u] = 0
	if err := p.Validate(); err == nil {
		t.Error("empty replica set accepted")
	}
}

func TestBusContentionForcesSerialCopies(t *testing.T) {
	// Two values cross clusters; one 2-cycle bus at II=4 fits both
	// ((4/2)*1 = 2 coms), at II=2 fits only one.
	b := ddg.NewBuilder("bus")
	u1 := b.Node("u1", ddg.OpIAdd)
	u2 := b.Node("u2", ddg.OpIAdd)
	v1 := b.Node("v1", ddg.OpIAdd)
	v2 := b.Node("v2", ddg.OpIAdd)
	b.Edge(u1, v1, 0)
	b.Edge(u2, v2, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 0, 1, 1})
	s := mustSchedule(t, p, m, 4)
	_ = s
	// At II=2 the bus can carry only one copy per window: must fail with a
	// resource error on a copy.
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunScratch(ig, 1, Options{}, NewScratch()); err == nil {
		t.Fatal("II=1 schedule succeeded with 2 copies on a 2-cycle bus")
	}
}

func TestLoopCarriedDependenceRespected(t *testing.T) {
	// fadd self-recurrence at distance 1: II=3 exactly fits lat 3.
	b := ddg.NewBuilder("rec")
	a := b.Node("a", ddg.OpFAdd)
	x := b.Node("x", ddg.OpFAdd)
	b.Edge(a, a, 1)
	b.Edge(a, x, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	p := placementOn(g, m, []int{0, 0})
	s := mustSchedule(t, p, m, 3)
	_ = s
}

func TestZeroBusLatencyModeShortensLengthKeepsBusPressure(t *testing.T) {
	b := ddg.NewBuilder("z")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})

	normal, err := ScheduleLoopScratch(p, m, 2, false, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	zero, err := ScheduleLoopScratch(p, m, 2, true, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if zero.Length >= normal.Length {
		t.Errorf("zero-latency length %d not shorter than %d", zero.Length, normal.Length)
	}
	// Bus pressure preserved: the copy still occupies 2 slots, so at II=1
	// both modes must fail.
	if _, err := ScheduleLoopScratch(p, m, 1, true, Options{}, NewScratch()); err == nil {
		t.Error("zero-latency mode ignored bus occupancy at II=1")
	}
}

func TestRegisterPressureFailure(t *testing.T) {
	// Many long-lived values on a machine with 2 registers per cluster.
	b := ddg.NewBuilder("reg")
	var loads []int
	sink := b.Node("sink", ddg.OpFDiv)
	prev := sink
	for i := 0; i < 6; i++ {
		l := b.Node("", ddg.OpLoad)
		loads = append(loads, l)
		b.Edge(l, prev, 0)
	}
	g := b.MustBuild()
	m := machine.MustNew(1, 0, 0, 2)
	p := placementOn(g, m, make([]int, g.NumNodes()))
	_, err := ScheduleLoopScratch(p, m, 2, false, Options{}, NewScratch())
	if err == nil {
		t.Fatal("schedule fit 6 concurrent lives in 2 registers")
	}
	var serr *Error
	if !strings.Contains(err.Error(), "registers") {
		t.Errorf("error %v does not mention registers", err)
	}
	if e, ok := err.(*Error); ok {
		serr = e
	}
	if serr == nil || serr.Kind != FailRegisters {
		t.Errorf("error kind = %v, want FailRegisters", err)
	}
	// Skipping the register check succeeds.
	if _, err := ScheduleLoopScratch(p, m, 2, false, Options{SkipRegisterCheck: true}, NewScratch()); err != nil {
		t.Errorf("SkipRegisterCheck still failed: %v", err)
	}
	_ = loads
}

func TestMaxLiveCountsOverlap(t *testing.T) {
	// Two loads feeding one fadd at II=1: both values live simultaneously.
	b := ddg.NewBuilder("live")
	l1 := b.Node("l1", ddg.OpLoad)
	l2 := b.Node("l2", ddg.OpLoad)
	a := b.Node("a", ddg.OpFAdd)
	b.Edge(l1, a, 0)
	b.Edge(l2, a, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	p := placementOn(g, m, []int{0, 0, 0})
	s := mustSchedule(t, p, m, 1)
	if s.MaxLive[0] < 2 {
		t.Errorf("MaxLive = %d, want >= 2", s.MaxLive[0])
	}
}

func TestFormatKernelListsAllInstances(t *testing.T) {
	b := ddg.NewBuilder("k")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpFMul)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	s := mustSchedule(t, p, m, 2)
	out := s.FormatKernel()
	for _, want := range []string{"u@c0", "v@c1", "copy(u)", "cluster 0", "cluster 1", "bus"} {
		if !strings.Contains(out, want) {
			t.Errorf("kernel output missing %q:\n%s", want, out)
		}
	}
}

func TestCyclesForModel(t *testing.T) {
	s := &Schedule{II: 3, SC: 2}
	if got := s.CyclesFor(10); got != (10-1+2)*3 {
		t.Errorf("CyclesFor(10) = %v", got)
	}
	if got := s.CyclesFor(0); got != (1-1+2)*3 {
		t.Errorf("CyclesFor clamps to 1 iteration, got %v", got)
	}
}

// randomPlacedLoop builds a random valid loop and a partitioned placement.
func randomPlacedLoop(rng *rand.Rand, m machine.Config, n int) (*ddg.Graph, *Placement) {
	b := ddg.NewBuilder("rand")
	ops := []ddg.OpKind{ddg.OpIAdd, ddg.OpIMul, ddg.OpFAdd, ddg.OpFMul, ddg.OpLoad, ddg.OpFDiv}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = b.Node("", ops[rng.Intn(len(ops))])
	}
	for i := 1; i < n; i++ {
		for k := 0; k < 1+rng.Intn(2); k++ {
			b.Edge(ids[rng.Intn(i)], ids[i], 0)
		}
	}
	if rng.Intn(3) == 0 {
		b.Edge(ids[n-1], ids[rng.Intn(n-1)], 1+rng.Intn(2))
	}
	// A store consuming the last value, with a mem edge back (next
	// iteration's loads wait for it).
	st := b.Node("st", ddg.OpStore)
	b.Edge(ids[n-1], st, 0)
	g := b.MustBuild()
	a := partition.InitialScratch(g, m, 8, partition.NewScratch())
	return g, NewPlacement(g, a)
}

// RunScratch is run with the schedule found accepted: the door the tests
// schedule a hand-built instance graph through.
func RunScratch(ig *IGraph, ii int, opts Options, sc *Scratch) (*Schedule, error) {
	length, maxLive, err := run(ig, ii, opts, sc)
	if err != nil {
		return nil, err
	}
	return accept(ig, ii, length, sc.time, maxLive), nil
}

// presentedPlacement is p carried onto its loop's canonical presentation,
// owning its memory like NewPlacement's: the placement the pipeline's
// search hands the scheduler, which schedules it as numbered.
func presentedPlacement(p *Placement) *Placement {
	cp := p.Present(new(ddg.Presentation), new(Placement))
	return &Placement{G: cp.G, K: cp.K, Home: cp.Home, Replicas: cp.Replicas}
}

func TestRandomSchedulesVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []machine.Config{
		machine.Unified(64),
		machine.MustParse("2c1b2l64r"),
		machine.MustParse("4c2b2l64r"),
		machine.MustParse("4c4b4l64r"),
	}
	for trial := 0; trial < 60; trial++ {
		m := configs[trial%len(configs)]
		_, p := randomPlacedLoop(rng, m, 4+rng.Intn(24))
		scheduled := false
		for ii := 1; ii <= 128; ii++ {
			s, err := RunScratch(mustIG(t, p, m), ii, Options{}, NewScratch())
			if err != nil {
				continue
			}
			if verr := Verify(s); verr != nil {
				t.Fatalf("trial %d II=%d: %v", trial, ii, verr)
			}
			scheduled = true
			break
		}
		if !scheduled {
			t.Fatalf("trial %d: no II up to 128 schedules", trial)
		}
	}
}

func mustIG(t *testing.T, p *Placement, m machine.Config) *IGraph {
	t.Helper()
	ig, err := referenceBuildIGraph(p, m, false)
	if err != nil {
		t.Fatal(err)
	}
	return ig
}

func TestExtraInstancesAccounting(t *testing.T) {
	b := ddg.NewBuilder("e")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpFMul)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b2l64r")
	p := placementOn(g, m, []int{0, 1})
	p.Replicas[u] = p.Replicas[u].Add(1)
	extra := p.ExtraInstances()
	if extra[ddg.ClassInt] != 1 || extra[ddg.ClassFP] != 0 {
		t.Errorf("ExtraInstances = %v", extra)
	}
	// Removing the now-dead home instance nets out to zero.
	p.Replicas[u] = p.Replicas[u].Remove(0)
	extra = p.ExtraInstances()
	if extra[ddg.ClassInt] != 0 {
		t.Errorf("ExtraInstances after removal = %v", extra)
	}
}
