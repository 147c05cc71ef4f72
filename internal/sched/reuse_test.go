package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
)

// An II attempt on the placement the arena last expanded reuses the instance
// graph and what is derived from it alone (igKey). These tests hold the
// reused graph to a fresh arena's and pin what reuse costs.

// requireSameIGraph fails unless the arena's graph equals a fresh build field
// for field, tables included.
func requireSameIGraph(t *testing.T, label string, got, want *IGraph) {
	t.Helper()
	type view struct {
		G                                              *ddg.Graph
		M                                              machine.Config
		Home                                           []int
		Replicas                                       []ClusterSet
		Inst                                           []Instance
		Edges                                          []IEdge
		CopyIdx, instIdx, outOff, inOff, outIdx, inIdx []int32
		commLat, busSlots                              int
		scratch                                        bool
	}
	of := func(ig *IGraph) view {
		return view{ig.G, ig.M, ig.P.Home, ig.P.Replicas, ig.Inst, ig.Edges,
			ig.CopyIdx, ig.instIdx, ig.outOff, ig.inOff, ig.outIdx, ig.inIdx, ig.commLat, ig.busSlots, ig.scratch}
	}
	if g, w := of(got), of(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: the arena's instance graph differs from a fresh build\n got  %+v\n want %+v", label, g, w)
	}
}

// componentSet is one component as a sorted set, with its recurrence flag.
type componentSet struct {
	nodes  []int32
	cyclic bool
}

// componentSets returns the components in component order.
func componentSets(flat, off []int32, cyclic []bool) []componentSet {
	var out []componentSet
	for i := range cyclic {
		out = append(out, componentSet{slices.Sorted(slices.Values(flat[off[i]:off[i+1]])), cyclic[i]})
	}
	return out
}

// TestReusedInstanceGraphMatchesFresh drives one Scratch through sequences
// of builds — the same placement twice; one replica bit flipped; the home
// moved, also to another of the node's replicas; zero-bus toggled; another
// loop with the same placement vectors, in the arena's placement slot and
// on the heap; the same vectors on fewer clusters; another machine under the
// same name (another bus latency; a heterogeneous matrix that differs in one
// cell, also when the cell is written in place) — filling the arena's
// placement slot in place as the pipeline does. After each step the arena's
// instance graph, its SCCs (as sets per component), priority groups and
// dist-0 order, and the schedule or failure at a ladder of intervals must
// equal a fresh Scratch's; and the arena must have reused exactly when the
// key says the inputs are equal.
func TestReusedInstanceGraphMatchesFresh(t *testing.T) {
	m := machine.MustParse("4c2b2l64r")
	otherLat := m
	otherLat.BusLatency = 3 // same Name, other machine
	fu := [][ddg.NumClasses]int{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	hetero := func() machine.Config {
		m, err := machine.NewHetero(2, 2, 16, fu)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	het, written := hetero(), hetero()
	fu[2][ddg.ClassFP] = 2
	hetCell := hetero()
	if hetCell.Name != het.Name {
		t.Fatalf("heterogeneous machines named %q and %q", het.Name, hetCell.Name)
	}
	cell := &written.Hetero[1][ddg.ClassInt]

	type step struct {
		name   string
		g      *ddg.Graph
		m      machine.Config
		zero   bool
		a      *partition.Assignment // nil: the loop's partition
		heap   bool                  // a NewPlacement, not the arena's slot
		edit   func(p *Placement)    // applied to the filled placement
		reused bool                  // the key says the inputs equal the last build's
	}
	spec := corpus.DefaultSpec()
	loops := 70
	if testing.Short() {
		loops = 21
	}
	sc := NewScratch() // one arena across every loop, as a driver worker's
	for i := 0; i < loops; i++ {
		g := spec.Loop(i)
		perm := ddg.PermuteRandom(g, g.Name+"#perm", int64(i))
		a := partition.InitialScratch(g, m, 8, partition.NewScratch())
		v := i % g.NumNodes()
		other := (a.Cluster[v] + 1) % a.K
		flip := func(p *Placement) { p.Replicas[v] = p.Replicas[v].Add(other) }
		swap := func(p *Placement) { flip(p); p.Home[v] = other }
		move := func(p *Placement) { p.Home[v], p.Replicas[v] = other, ClusterSet(0).Add(other) }
		low := &partition.Assignment{Cluster: make([]int, len(a.Cluster)), K: a.K}
		for u, c := range a.Cluster {
			low.Cluster[u] = c % 2
		}
		two := &partition.Assignment{Cluster: low.Cluster, K: 2}
		steps := []step{
			{name: "first build", g: g, m: m},
			{name: "same placement", g: g, m: m, reused: true},
			{name: "same placement again", g: g, m: m, reused: true},
			{name: "one replica bit flipped", g: g, m: m, edit: flip},
			{name: "home moved to the other replica", g: g, m: m, edit: swap},
			{name: "the bit flipped back", g: g, m: m},
			{name: "one home moved", g: g, m: m, edit: move},
			{name: "the home moved back", g: g, m: m},
			{name: "zero-bus on", g: g, m: m, zero: true},
			{name: "zero-bus on again", g: g, m: m, zero: true, reused: true},
			{name: "zero-bus off", g: g, m: m},
			{name: "another loop, same vectors", g: perm, m: m},
			{name: "back to the loop", g: g, m: m},
			{name: "another loop on the heap", g: perm, m: m, heap: true},
			{name: "the loop on the heap", g: g, m: m, heap: true},
			{name: "the loop in the arena again", g: g, m: m, reused: true},
			{name: "same name, other bus latency", g: g, m: otherLat},
			{name: "heterogeneous", g: g, m: het},
			{name: "heterogeneous again", g: g, m: het, reused: true},
			{name: "one hetero cell differs", g: g, m: hetCell},
			{name: "heterogeneous, to be written", g: g, m: written},
			{name: "one hetero cell written in place", g: g, m: written},
			{name: "vectors on clusters 0 and 1", g: g, m: m, a: low},
			{name: "the same vectors, K = 2", g: g, m: m, a: two},
		}
		for _, s := range steps {
			label := fmt.Sprintf("%s, step %q", g.Name, s.name)
			if s.name == "one hetero cell written in place" {
				*cell = 3 - *cell // 1 ↔ 2; the step's machine shares the matrix
			}
			if s.a == nil {
				s.a = a
			}
			fill := func(sc *Scratch) *Placement {
				p := NewPlacement(s.g, s.a)
				if !s.heap {
					p = sc.Placement(s.g, s.a)
				}
				if s.edit != nil {
					s.edit(p)
				}
				return p
			}
			p := fill(sc)
			ig, err := sc.buildIGraph(p, s.m, s.zero)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if reused := sc.groupsOK; reused != s.reused {
				t.Fatalf("%s: reused the last build: %t, want %t", label, reused, s.reused)
			}
			fresh := NewScratch()
			fig, err := fresh.buildIGraph(fill(fresh), s.m, s.zero)
			if err != nil {
				t.Fatal(err)
			}
			if ig != &sc.ig || ig.P != p {
				t.Fatalf("%s: the build is not the arena's graph over the attempt's placement", label)
			}
			requireSameIGraph(t, label, ig, fig)
			if got, want := componentSets(igSCCs(ig, sc)), componentSets(igSCCs(fig, fresh)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: SCCs\n got  %v\n want %v", label, got, want)
			}
			gf, goff := buildGroups(ig, sc)
			wf, woff := buildGroups(fig, fresh)
			if !slices.Equal(gf, wf) || !slices.Equal(goff, woff) {
				t.Fatalf("%s: priority groups\n got  %v %v\n want %v %v", label, gf, goff, wf, woff)
			}
			_, got := igTopo(ig, sc)
			if _, want := igTopo(fig, fresh); !slices.Equal(got, want) {
				t.Fatalf("%s: dist-0 order\n got  %v\n want %v", label, got, want)
			}
			// A ladder of attempts, as the II search makes them.
			for ii := 1; ii <= 12; ii += 1 + ii/4 {
				requireSameRun(t, label, ig, fig, ii, sc, fresh)
			}
		}
		// A graph that is not the arena's, scheduled on it, must not be
		// handed the orderings the arena keeps for its own.
		foreign, err := referenceBuildIGraph(NewPlacement(perm, a), m, false)
		if err != nil {
			t.Fatal(err)
		}
		for ii := 1; ii <= 12; ii += 1 + ii/4 {
			requireSameRun(t, perm.Name+" on the arena", foreign, foreign, ii, sc, NewScratch())
		}
	}
}

// requireSameRun schedules got on sc and want on fresh at ii, under every
// order (ForceTopoOrder runs igTopoAll, which re-sorts the components), and
// fails unless both agree.
func requireSameRun(t *testing.T, label string, got, want *IGraph, ii int, sc, fresh *Scratch) {
	t.Helper()
	for _, opts := range []Options{{}, {ForceTopoOrder: true}} {
		gs, gerr := RunScratch(got, ii, opts, sc)
		ws, werr := RunScratch(want, ii, opts, fresh)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s, II=%d %+v: error %v, fresh %v", label, ii, opts, gerr, werr)
		}
		if gs != nil && (!slices.Equal(gs.Time, ws.Time) || !slices.Equal(gs.MaxLive, ws.MaxLive)) {
			t.Fatalf("%s, II=%d %+v: times %v, fresh %v", label, ii, opts, gs.Time, ws.Time)
		}
	}
}

// TestReusedAttemptSteadyStateAllocs pins an attempt on the placement the
// arena last expanded — the II search climbing on a converged partition — at
// no allocation, and checks that it did reuse the graph.
func TestReusedAttemptSteadyStateAllocs(t *testing.T) {
	eachNumbering(t, func(t *testing.T, p *Placement, m machine.Config, sc *Scratch, ii int) {
		if ii < 3 {
			t.Skip("the warmup loop has fewer than two failing intervals")
		}
		if _, err := ScheduleLoopScratch(p, m, 1, false, Options{}, sc); err == nil {
			t.Skip("II=1 unexpectedly feasible for the warmup loop")
		}
		if _, err := arenaIGraph(sc, p, m); err != nil || !sc.groupsOK {
			t.Fatalf("a build of the placement just scheduled did not reuse its graph (err %v)", err)
		}
		next := 1
		avg := testing.AllocsPerRun(50, func() {
			next = next%(ii-1) + 1 // a failing interval below ii, a different one each run
			if _, err := ScheduleLoopScratch(p, m, next, false, Options{}, sc); err == nil {
				t.Fatalf("attempt at II=%d unexpectedly succeeded", next)
			}
		})
		if avg != 0 {
			t.Errorf("reused attempt allocates %.1f objects in steady state, want 0", avg)
		}
	})
}
