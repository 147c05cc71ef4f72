package sched

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
)

func TestAdoptValidatesTimes(t *testing.T) {
	b := ddg.NewBuilder("a")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	p := placementOn(g, m, []int{0, 0})
	ig := mustIG(t, p, m)
	s, err := RunScratch(ig, 1, Options{}, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	// Adopting the same times must succeed and agree on stats.
	s2, err := Adopt(ig, 1, s.Time, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Length != s.Length || s2.SC != s.SC {
		t.Errorf("Adopt stats differ: %d/%d vs %d/%d", s2.Length, s2.SC, s.Length, s.SC)
	}
	// Violating a dependence must be rejected.
	bad := append([]int(nil), s.Time...)
	bad[ig.InstanceAt(v, 0)] = 0
	bad[ig.InstanceAt(u, 0)] = 5
	if _, err := Adopt(ig, 1, bad, Options{}); err == nil {
		t.Error("Adopt accepted dependence-violating times")
	}
	// Wrong vector size must be rejected.
	if _, err := Adopt(ig, 1, bad[:1], Options{}); err == nil {
		t.Error("Adopt accepted short time vector")
	}
}

func TestNormalizationKeepsTimesNonNegative(t *testing.T) {
	// Loops whose SMS order schedules ancestors downward produce negative
	// intermediate times; the published schedule must not.
	rng := rand.New(rand.NewSource(8))
	m := machine.MustParse("2c1b2l64r")
	for trial := 0; trial < 40; trial++ {
		_, p := randomPlacedLoop(rng, m, 6+rng.Intn(20))
		for ii := 2; ii < 64; ii++ {
			s, err := RunScratch(mustIG(t, p, m), ii, Options{}, NewScratch())
			if err != nil {
				continue
			}
			for i, tm := range s.Time {
				if tm < 0 {
					t.Fatalf("trial %d: instance %d at negative time %d", trial, i, tm)
				}
			}
			break
		}
	}
}

func TestIGTopoAllRespectsCondensation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := machine.MustParse("4c1b2l64r")
	for trial := 0; trial < 30; trial++ {
		_, p := randomPlacedLoop(rng, m, 6+rng.Intn(20))
		ig := mustIG(t, p, m)
		sc := NewScratch()
		tm := computeIGTiming(ig, 4, sc)
		order := igTopoAll(ig, tm, sc)
		if len(order) != ig.NumInstances() {
			t.Fatalf("order covers %d of %d", len(order), ig.NumInstances())
		}
		pos := make([]int, len(order))
		for i, v := range order {
			pos[v] = i
		}
		// Cross-SCC edges must go forward.
		flat, off, _ := igSCCs(ig, NewScratch())
		compOf := make([]int, ig.NumInstances())
		for ci := 0; ci+1 < len(off); ci++ {
			for _, v := range flat[off[ci]:off[ci+1]] {
				compOf[v] = ci
			}
		}
		for _, e := range ig.Edges {
			if compOf[e.Src] != compOf[e.Dst] && pos[e.Src] > pos[e.Dst] {
				t.Fatalf("trial %d: cross-component edge %s->%s goes backward",
					trial, ig.Name(e.Src), ig.Name(e.Dst))
			}
		}
	}
}

func TestBusOccupancyMatchesLatency(t *testing.T) {
	// A copy on a 4-cycle bus occupies 4 consecutive modulo slots: at II=4
	// a single bus carries exactly one copy.
	b := ddg.NewBuilder("bus4")
	u1 := b.Node("u1", ddg.OpIAdd)
	v1 := b.Node("v1", ddg.OpIAdd)
	u2 := b.Node("u2", ddg.OpIAdd)
	v2 := b.Node("v2", ddg.OpIAdd)
	b.Edge(u1, v1, 0)
	b.Edge(u2, v2, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b4l64r")
	p := placementOn(g, m, []int{0, 1, 0, 1})
	if _, err := ScheduleLoopScratch(p, m, 4, false, Options{}, NewScratch()); err == nil {
		t.Error("two 4-cycle copies fit a single bus at II=4")
	}
	if _, err := ScheduleLoopScratch(p, m, 8, false, Options{}, NewScratch()); err != nil {
		t.Errorf("II=8 should fit two copies: %v", err)
	}
}

func TestCopyLongerThanIIFails(t *testing.T) {
	b := ddg.NewBuilder("long")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	b.Edge(u, v, 0)
	g := b.MustBuild()
	m := machine.MustParse("2c1b4l64r")
	p := placementOn(g, m, []int{0, 1})
	if _, err := ScheduleLoopScratch(p, m, 2, false, Options{}, NewScratch()); err == nil {
		t.Error("4-cycle copy placed at II=2")
	}
}

func TestFormatKernelStageAnnotations(t *testing.T) {
	b := ddg.NewBuilder("st")
	l := b.Node("l", ddg.OpLoad)
	d := b.Node("d", ddg.OpFDiv)
	s := b.Node("s", ddg.OpStore)
	b.Edge(l, d, 0)
	b.Edge(d, s, 0)
	g := b.MustBuild()
	m := machine.Unified(64)
	p := placementOn(g, m, []int{0, 0, 0})
	sch := mustSchedule(t, p, m, 2)
	out := sch.FormatKernel()
	// The store issues deep in the pipeline: a stage > 0 must appear.
	if !strings.Contains(out, "s@c0[") || strings.Contains(out, "s@c0[0]") {
		t.Errorf("store should carry a non-zero stage annotation:\n%s", out)
	}
}

func TestPlacementCommTargets(t *testing.T) {
	b := ddg.NewBuilder("ct")
	u := b.Node("u", ddg.OpIAdd)
	v := b.Node("v", ddg.OpIAdd)
	w := b.Node("w", ddg.OpIAdd)
	b.Edge(u, v, 0)
	b.Edge(u, w, 0)
	g := b.MustBuild()
	m := machine.MustParse("4c1b2l64r")
	p := placementOn(g, m, []int{0, 1, 2})
	targets := p.CommTargets(u)
	if got := targets.Clusters(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("CommTargets = %v, want [1 2]", got)
	}
	// Replicating into one target shrinks the set.
	p.Replicas[u] = p.Replicas[u].Add(1)
	if got := p.CommTargets(u).Clusters(); len(got) != 1 || got[0] != 2 {
		t.Errorf("CommTargets after replica = %v, want [2]", got)
	}
}

func TestQuickSchedulesAlwaysVerify(t *testing.T) {
	m := machine.MustParse("4c2b2l64r")
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw%24)
		_, p := randomPlacedLoop(rng, m, n)
		for ii := 2; ii < 96; ii++ {
			ig, err := referenceBuildIGraph(p, m, false)
			if err != nil {
				return false
			}
			s, err := RunScratch(ig, ii, Options{SkipRegisterCheck: true}, NewScratch())
			if err != nil {
				continue
			}
			return Verify(s) == nil
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMaxLiveScalesWithParallelLives(t *testing.T) {
	// k independent long-latency chains at II=1: at least k values live.
	for _, k := range []int{2, 4, 6} {
		b := ddg.NewBuilder("lives")
		for i := 0; i < k; i++ {
			l := b.Node("", ddg.OpLoad)
			d := b.Node("", ddg.OpFDiv)
			b.Edge(l, d, 0)
		}
		g := b.MustBuild()
		m := machine.MustNew(1, 0, 0, 1024)
		p := placementOn(g, m, make([]int, g.NumNodes()))
		s, err := ScheduleLoopScratch(p, m, k, false, Options{}, NewScratch())
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if s.MaxLive[0] < 2 {
			t.Errorf("k=%d: MaxLive=%d suspiciously low", k, s.MaxLive[0])
		}
	}
}

// TestZeroBusFallbackAdoptsRealTimes: where the relaxed (zero-bus-latency)
// problem defeats the greedy scheduler, or schedules it longer,
// ScheduleLoopScratch returns the real-latency schedule's times, proven for
// the relaxed graph, on the same arena a search keeps using. Without the
// register check the upper-bound mode is never worse than the real machine,
// in interval or in length; with it, the adopted times can need more
// registers on the relaxed graph than on the real one, so the fallback only
// ever answers with a schedule the relaxed graph proves. The loops are
// presented, as the pipeline's search hands them to the scheduler.
func TestZeroBusFallbackAdoptsRealTimes(t *testing.T) {
	spec := corpus.DefaultSpec()
	sc, psc := NewScratch(), partition.NewScratch()
	fallbacks, shorter, loops := 0, 0, 300
	if testing.Short() {
		loops = 60
	}
	for _, m := range machine.PaperConfigs() {
		for i := 0; i < loops; i++ {
			g := new(ddg.Presentation).Of(spec.Loop(i))
			opts := Options{SkipRegisterCheck: i%2 == 0}
			for ii := 1; ii <= 12; ii++ {
				p := NewPlacement(g, partition.InitialScratch(g, m, ii, psc))
				relaxed, err := referenceBuildIGraph(p, m, true)
				if err != nil {
					t.Fatal(err)
				}
				real, rerr := ScheduleLoopScratch(p, m, ii, false, opts, NewScratch())
				if rs, err := RunScratch(relaxed, ii, opts, NewScratch()); err == nil {
					// No fallback at this II; a real-latency schedule that is
					// shorter replaces the relaxed one.
					s, err := ScheduleLoopScratch(p, m, ii, true, opts, sc)
					if err != nil {
						t.Fatalf("%s on %s at II=%d: relaxed schedule refused: %v", g.Name, m.Name, ii, err)
					}
					if rerr == nil && opts.SkipRegisterCheck && s.Length > real.Length {
						t.Fatalf("%s on %s at II=%d: zero-bus length %d > real %d", g.Name, m.Name, ii, s.Length, real.Length)
					}
					if s.Length < rs.Length {
						shorter++
					}
					continue
				}
				s, err := ScheduleLoopScratch(p, m, ii, true, opts, sc)
				if err == nil && rerr != nil || err != nil && rerr == nil && opts.SkipRegisterCheck {
					t.Fatalf("%s on %s at II=%d: zero-bus error %v, real-latency error %v", g.Name, m.Name, ii, err, rerr)
				}
				if err != nil {
					continue
				}
				fallbacks++
				if s.IG.commLat != 0 || !slices.Equal(s.Time, real.Time) {
					t.Fatalf("%s on %s at II=%d: fallback schedule is not the real times on the relaxed graph", g.Name, m.Name, ii)
				}
				if err := Verify(s); err != nil {
					t.Fatalf("%s on %s at II=%d: %v", g.Name, m.Name, ii, err)
				}
			}
		}
	}
	if fallbacks == 0 || shorter == 0 {
		t.Fatalf("%d loops needed the zero-bus fallback, %d took the shorter real-latency times; want some of each", fallbacks, shorter)
	}
	t.Logf("%d fallbacks, %d shorter", fallbacks, shorter)
}
