package vliwsim

import (
	"cmp"
	"fmt"
	"slices"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// This file is the execution core behind Execute, Measure and Reference:
// one pass over a pooled scratch, with everything an event needs tabulated
// once per call.
//
// Event order. The executor must walk the n·iters issue events in
// (issue cycle, instance index) order — the order decides which violation
// is reported first and whether a zero-latency producer issuing in its
// consumer's cycle has been simulated yet. Instance i of iteration k issues
// at Time[i] + k·II. Write Time[i] = stage_i·II + row_i with 0 ≤ row_i < II
// (floor division, so negative times decompose too); the issue cycle is
// then (stage_i + k)·II + row_i, and because rows are smaller than II,
// ordering events by cycle is ordering them by (stage_i + k, row_i). So:
// order the n instances once by (row, index), and for each global stage
// S = stage_i + k in ascending order emit, in that instance order, every
// instance with 0 ≤ S − stage_i < iters. That is exactly the sorted event
// list, with one n log n sort of instances instead of a comparison sort of
// events.
//
// Stage compaction. Global stages are not swept as integers: issue times
// are caller data and may be astronomically far apart. Instance i is live
// on the stage interval [stage_i, stage_i + iters); only the union of those
// intervals holds events, and it has at most n·iters points. Sorting the
// distinct stages and closing every gap wider than iters maps that union
// order-preservingly onto 0..L−1 with L ≤ n·iters, and maps each instance's
// interval onto base_i..base_i+iters−1. Events are then bucketed by compact
// stage with a counting sort filled in (row, index) order. Total cost
// O(n·iters + n log n) time and memory, independent of the cycle range.
//
// Scratch ownership. Every working buffer lives in a scratch taken from a
// pool for the duration of one public call and returned before the
// call returns; nothing a caller receives aliases it. Execute and Reference
// allocate the Trace they hand out; Measure's two traces never leave the
// call (only the Report and its TraceDiff string do), so they are scratch
// too. Concurrent callers each hold their own scratch.

// unit is the per-call table entry of one schedulable unit — an instance
// under run, a source node under evaluate: what its events need, computed
// once instead of once per event.
type unit struct {
	seed uint64 // opSeed of the executed operation
	init uint64 // initSeed of the original node
	salt uint64 // loadSalt of the original node (loads only)
	orig int    // original node ID
	rank int    // stores: position among one iteration's store records
	time int    // run: issue cycle of iteration 0
	lat  int    // run: producer latency
	base int    // run: compact stage of iteration 0
	kind uint8
}

const (
	kindPlain uint8 = iota
	kindLoad
	kindStore
	kindCopy
)

// operand is one data dependence into a unit: the producing unit, the
// iteration distance, and (run only) the dependence latency.
type operand struct {
	src, dist, lat int32
}

// scratch is the working memory of one call. The zero value is ready.
type scratch struct {
	units []unit
	// ops[opOff[u]:opOff[u+1]] are the data operands of unit u, in edge order.
	opOff []int32
	ops   []operand

	order  []int32 // instances by (row, index)
	rows   []int   // row of each instance
	stages []int   // stage of each instance, then the sorted distinct stages
	bases  []int   // compact index of each distinct stage
	off    []int   // events[off[c]:off[c+1]] issue in compact stage c
	next   []int   // fill cursor per compact stage
	events []int32 // instance of each event, in issue order

	perIter int      // store records one iteration of the tabulated units produces
	values  []uint64 // run: [instance·total + iter]; evaluate: [iter·nodes + node]
	done    []bool   // run: the slot's value has been produced

	got, want []StoreRecord // Measure's executed and reference traces
	topo      ddg.OrderScratch
}

var scratchPool arena.Pool[scratch]

// setOp fills the operation-dependent fields of a unit executing op on
// original node orig.
func (u *unit) setOp(op ddg.OpKind, orig int) {
	u.orig = orig
	u.init = initSeed(orig)
	u.seed = opSeed(op)
	switch {
	case op.IsStore():
		u.kind = kindStore
	case op == ddg.OpLoad:
		u.kind = kindLoad
		u.salt = loadSalt(orig)
	}
}

// loadGraph tabulates the source loop for evaluate.
func (sc *scratch) loadGraph(g *ddg.Graph) {
	n := g.NumNodes()
	sc.units = arena.Grown(sc.units, n)
	sc.opOff = arena.Grown(sc.opOff, n+1)
	sc.ops = sc.ops[:0]
	sc.perIter = 0
	for v := range sc.units {
		u := &sc.units[v]
		*u = unit{}
		u.setOp(g.Nodes[v].Op, v)
		if u.kind == kindStore {
			// Node order is rank order: the trace comes out canonical.
			u.rank = sc.perIter
			sc.perIter++
		}
		sc.opOff[v] = int32(len(sc.ops))
		for _, eid := range g.In(v) {
			if e := &g.Edges[eid]; e.Kind == ddg.EdgeData {
				sc.ops = append(sc.ops, operand{src: int32(e.Src), dist: int32(e.Dist)})
			}
		}
	}
	sc.opOff[n] = int32(len(sc.ops))
}

// evaluate runs the tabulated source loop for iters iterations and writes
// its canonical trace into stores (len = sc.perIter · iters).
func (sc *scratch) evaluate(g *ddg.Graph, iters int, stores []StoreRecord) {
	n := g.NumNodes()
	topo, _ := g.TopoOrder(&sc.topo)
	// One flat slab, a row of n values per iteration. Only a window of
	// maxDist+1 rows is ever read, but loops are small: keep them all.
	sc.values = arena.Grown(sc.values, n*iters)
	for k := 0; k < iters; k++ {
		row := sc.values[k*n : (k+1)*n]
		for _, v := range topo {
			u := &sc.units[v]
			h := u.seed
			for _, op := range sc.ops[sc.opOff[v]:sc.opOff[v+1]] {
				if src := k - int(op.dist); src < 0 {
					h = mix(h, initialAt(sc.units[op.src].init, src))
				} else {
					h = mix(h, sc.values[src*n+int(op.src)])
				}
			}
			switch u.kind {
			case kindStore:
				stores[k*sc.perIter+u.rank] = StoreRecord{Node: int(v), Iter: k, Value: h}
				h = 0 // a store produces no value
			case kindLoad:
				h = loadValue(h, u.salt, k)
			}
			row[v] = h
		}
	}
}

// loadSchedule tabulates the schedule's instances for run. The schedule
// must have passed validate.
func (sc *scratch) loadSchedule(s *sched.Schedule) {
	ig := s.IG
	g := ig.G
	n := ig.NumInstances()
	sc.units = arena.Grown(sc.units, n)
	sc.opOff = arena.Grown(sc.opOff, n+1)
	sc.ops = sc.ops[:0]
	sc.order = arena.Grown(sc.order, n)
	ranked := sc.order[:0]
	for i := range sc.units {
		in := ig.Inst[i]
		u := &sc.units[i]
		*u = unit{time: s.Time[i], lat: ig.Latency(int32(i))}
		if orig := int(in.Orig); in.IsCopy {
			u.orig, u.init, u.kind = orig, initSeed(orig), kindCopy
		} else {
			u.setOp(g.Nodes[orig].Op, orig)
		}
		if u.kind == kindStore {
			ranked = append(ranked, int32(i))
		}
		sc.opOff[i] = int32(len(sc.ops))
		for _, eid := range ig.In(int32(i)) {
			if e := &ig.Edges[eid]; e.Data {
				sc.ops = append(sc.ops, operand{src: e.Src, dist: e.Dist, lat: e.Lat})
			}
		}
	}
	sc.opOff[n] = int32(len(sc.ops))
	// Each store instance writes its record straight to slot
	// iter·perIter + rank, ranked by (node, instance): the trace comes out
	// sorted up to the order of a replicated store's records among
	// themselves, which canonicalize settles by value.
	slices.SortFunc(ranked, func(a, b int32) int {
		if c := cmp.Compare(sc.units[a].orig, sc.units[b].orig); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	for r, i := range ranked {
		sc.units[i].rank = r
	}
	sc.perIter = len(ranked)
}

// floorDiv is a/b rounded toward negative infinity, for b > 0.
func floorDiv(a, b int) int {
	q := a / b
	if a%b < 0 {
		q--
	}
	return q
}

// plan orders the events of a total-iteration execution of the tabulated
// schedule into sc.events, bucketed by compact stage in sc.off (see the
// file comment), and returns the number of compact stages.
func (sc *scratch) plan(ii, total int) int {
	n := len(sc.units)
	sc.order = arena.Grown(sc.order, n)
	sc.rows = arena.Grown(sc.rows, n)
	sc.stages = arena.Grown(sc.stages, n)
	for i := range sc.units {
		st := floorDiv(sc.units[i].time, ii)
		sc.stages[i] = st
		sc.rows[i] = sc.units[i].time - st*ii
		sc.order[i] = int32(i)
	}
	rows := sc.rows
	slices.SortFunc(sc.order, func(a, b int32) int {
		if c := cmp.Compare(rows[a], rows[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Distinct stages in ascending order, each with its compact index: a
	// gap of total or more stages separates two instances' live intervals
	// entirely, so it closes to exactly total.
	slices.Sort(sc.stages)
	sc.stages = slices.Compact(sc.stages)
	sc.bases = arena.Grown(sc.bases, len(sc.stages))
	c := 0
	for j, st := range sc.stages {
		if j > 0 {
			c += min(st-sc.stages[j-1], total)
		}
		sc.bases[j] = c
	}
	nstages := 0
	if n > 0 {
		nstages = c + total
	}

	// Counting sort of events by compact stage. off first holds the
	// change in live instances entering each stage, then bucket offsets.
	sc.off = arena.Zeroed(sc.off, nstages+1)
	for i := range sc.units {
		u := &sc.units[i]
		j, _ := slices.BinarySearch(sc.stages, floorDiv(u.time, ii))
		u.base = sc.bases[j]
		sc.off[u.base]++
		sc.off[u.base+total]--
	}
	sc.next = arena.Grown(sc.next, nstages)
	live, pos := 0, 0
	for c := 0; c < nstages; c++ {
		live += sc.off[c]
		sc.off[c], sc.next[c] = pos, pos
		pos += live
	}
	sc.off[nstages] = pos
	sc.events = arena.Grown(sc.events, pos)
	for _, i := range sc.order {
		next := sc.next[sc.units[i].base:][:total]
		for k := range next {
			sc.events[next[k]] = i
			next[k]++
		}
	}
	return nstages
}

// run executes the tabulated schedule for iters+span iterations in one
// pass. It writes the store records of the first iters iterations into
// stores (len = sc.perIter · iters; uncanonicalized) and returns
// the completion cycle of the first iters iterations and of all of them.
func (sc *scratch) run(s *sched.Schedule, iters, span int, stores []StoreRecord) (lastDone, lastAll int, err error) {
	ii := s.II
	total := iters + span
	nstages := sc.plan(ii, total)
	sc.values = arena.Grown(sc.values, len(sc.units)*total)
	sc.done = arena.Zeroed(sc.done, len(sc.units)*total)

	for c := 0; c < nstages; c++ {
		for _, i := range sc.events[sc.off[c]:sc.off[c+1]] {
			u := &sc.units[i]
			k := c - u.base
			issue := u.time + k*ii
			h := u.seed
			var last uint64
			ops := sc.ops[sc.opOff[i]:sc.opOff[i+1]]
			for _, op := range ops {
				srcIter := k - int(op.dist)
				src := &sc.units[op.src]
				if srcIter < 0 {
					last = initialAt(src.init, srcIter)
				} else {
					// The producer must have completed: issue(src) + lat <= issue.
					if srcIssue := src.time + srcIter*ii; srcIssue+int(op.lat) > issue {
						return 0, 0, fmt.Errorf("vliwsim: operand of %s (iter %d) not ready: %s issues at %d+%d, consumer at %d",
							s.IG.Name(i), k, s.IG.Name(op.src), srcIssue, op.lat, issue)
					}
					slot := int(op.src)*total + srcIter
					if !sc.done[slot] {
						return 0, 0, fmt.Errorf("vliwsim: internal: producer %s iter %d not simulated before %s",
							s.IG.Name(op.src), srcIter, s.IG.Name(i))
					}
					last = sc.values[slot]
				}
				h = mix(h, last)
			}

			switch u.kind {
			case kindCopy:
				// A copy transports its single operand unchanged.
				if len(ops) != 1 {
					return 0, 0, fmt.Errorf("vliwsim: copy of %s has %d operands", s.IG.G.NodeName(u.orig), len(ops))
				}
				h = last
			case kindStore:
				if k < iters {
					stores[k*sc.perIter+u.rank] = StoreRecord{Node: u.orig, Iter: k, Value: h}
				}
				h = 0 // a store produces no value
			case kindLoad:
				h = loadValue(h, u.salt, k)
			}
			slot := int(i)*total + k
			sc.values[slot] = h
			sc.done[slot] = true
			done := issue + u.lat
			lastAll = max(lastAll, done)
			if k < iters {
				lastDone = max(lastDone, done)
			}
		}
	}
	return lastDone, lastAll, nil
}
