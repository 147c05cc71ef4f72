package sched

// The scheduler's retired attempt, kept verbatim as the oracle run and its
// callers are held to (identifiers prefixed reference, nothing else
// touched): run trying both fallback orders after every failure of the
// priority order that is not a register failure, whatever the interval,
// and runWithOrder scanning each window one cycle at a time through
// canPlace. ScheduleLoopScratch and scheduleLoop, which did not change,
// are copied with run renamed, so that a whole II search can run on the
// retired attempt (oracle_test.go).

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/workload"
)

// canPlace is the retired per-cycle check the reference scans make, kept
// verbatim but for the copy half, which is now busFree: whether instance
// in (operating as op) can issue at the given absolute time. Its unit half
// is what the full-slot masks must agree with (mrt_test.go).
func (t *mrt) canPlace(in Instance, op ddg.OpKind, time int) bool {
	if in.IsCopy {
		return t.busFree(time)
	}
	cl := op.Class()
	c := int(in.Cluster)
	return int(t.fu[(c*ddg.NumClasses+int(cl))*t.ii+t.slot(time)]) < t.m.FUAt(c, cl)
}

func referenceRun(ig *IGraph, ii int, opts Options, sc *Scratch) (length int, maxLive []int, err error) {
	// The first order's failure is the one reported; the fallback orders
	// fail into the other slot.
	first, fallback := &sc.errs[0], &sc.errs[1]
	if ii <= 0 {
		*first = Error{Kind: FailWindow, Inst: -1, II: ii}
		return 0, nil, first
	}
	tm := computeIGTiming(ig, ii, sc)
	if opts.ForceTopoOrder {
		if length, maxLive, ok := referenceRunWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, first); ok {
			return length, maxLive, nil
		}
		return 0, nil, first
	}
	if length, maxLive, ok := referenceRunWithOrder(ig, ii, referencePriorityOrder(ig, ii, tm, sc), tm, opts, sc, first); ok {
		return length, maxLive, nil
	}
	if first.Kind == FailRegisters {
		return 0, nil, first // a register failure is definitive for this II
	}
	_, order := igTopo(ig, sc)
	if length, maxLive, ok := referenceRunWithOrder(ig, ii, order, tm, opts, sc, fallback); ok {
		return length, maxLive, nil
	}
	if length, maxLive, ok := referenceRunWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, fallback); ok {
		return length, maxLive, nil
	}
	return 0, nil, first
}

func referenceRunWithOrder(ig *IGraph, ii int, order []int32, tm *ddg.Timing, opts Options, sc *Scratch, fail *Error) (int, []int, bool) {
	const inf = int(^uint(0) >> 1)
	rt := &sc.rt
	rt.reset(ig.M, ig.P.K, ii)
	n := ig.NumInstances()
	time := zeroed(sc.time, n)
	sc.time = time
	placed := zeroed(sc.placed, n)
	sc.placed = placed

	for _, v := range order {
		estart, lstart := -inf, inf
		hasPred, hasSucc := false, false
		for _, eid := range ig.In(v) {
			e := &ig.Edges[eid]
			if !placed[e.Src] || e.Src == v {
				continue
			}
			hasPred = true
			if t := time[e.Src] + int(e.Lat) - ii*int(e.Dist); t > estart {
				estart = t
			}
		}
		for _, eid := range ig.Out(v) {
			e := &ig.Edges[eid]
			if !placed[e.Dst] || e.Dst == v {
				continue
			}
			hasSucc = true
			if t := time[e.Dst] - int(e.Lat) + ii*int(e.Dist); t < lstart {
				lstart = t
			}
		}
		inst := ig.Inst[v]
		op := inst.Op(ig.G)

		var found bool
		var foundAt int
		switch {
		case hasPred && hasSucc:
			if estart > lstart {
				*fail = Error{Kind: FailWindow, Inst: v, IsCopy: inst.IsCopy,
					II: ii, EStart: estart, LStart: lstart}
				return 0, nil, false
			}
			end := lstart
			if e2 := estart + ii - 1; e2 < end {
				end = e2
			}
			for t := estart; t <= end; t++ {
				if rt.canPlace(inst, op, t) {
					found, foundAt = true, t
					break
				}
			}
		case hasSucc:
			for t := lstart; t > lstart-ii; t-- {
				if rt.canPlace(inst, op, t) {
					found, foundAt = true, t
					break
				}
			}
		default: // preds only, or no scheduled neighbors
			if !hasPred {
				estart = tm.ASAP[v]
			}
			for t := estart; t < estart+ii; t++ {
				if rt.canPlace(inst, op, t) {
					found, foundAt = true, t
					break
				}
			}
		}
		if !found {
			*fail = Error{Kind: FailResource, Inst: v, IsCopy: inst.IsCopy, II: ii}
			return 0, nil, false
		}
		rt.place(inst, op, foundAt)
		time[v] = foundAt
		placed[v] = true
	}

	// Normalize: shift all times by a multiple of II so the earliest issue
	// lands in [0, II). Shifting by k·II preserves both dependences and
	// reservation-table residues.
	minT := 0
	for i := range time {
		if time[i] < minT {
			minT = time[i]
		}
	}
	if minT < 0 {
		shift := ((-minT + ii - 1) / ii) * ii
		for i := range time {
			time[i] += shift
		}
	}

	length := 0
	for i := range ig.Inst {
		if l := time[i] + ig.Latency(int32(i)); l > length {
			length = l
		}
	}
	if length == 0 {
		length = 1
	}
	maxLive := computeMaxLive(ig, ii, time, sc)
	if !opts.SkipRegisterCheck {
		for c, live := range maxLive {
			if live > ig.M.Regs {
				*fail = Error{Kind: FailRegisters, Inst: -1,
					II: ii, Cluster: c, Live: live, Regs: ig.M.Regs}
				return 0, nil, false
			}
		}
	}
	return length, maxLive, true
}

func referenceScheduleLoopScratch(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options, sc *Scratch) (*Schedule, error) {
	if p.G.Presented() {
		ig, length, maxLive, err := referenceScheduleLoop(p, m, ii, zeroBusLat, opts, sc)
		if err != nil {
			return nil, err
		}
		return accept(ig, ii, length, sc.time, maxLive), nil
	}
	from, length, maxLive, err := referenceScheduleLoop(p.Present(&sc.present, &sc.presented), m, ii, zeroBusLat, opts, sc)
	if err != nil {
		return nil, err
	}
	if sc.back == nil {
		sc.back = NewScratch()
	}
	back := sc.back
	ig, err := back.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	back.time = grown(back.time, len(ig.Inst))
	carryTimes(ig, from, sc.present.Perm, sc.time, back.time)
	return accept(ig, ii, length, back.time, maxLive), nil
}

func referenceScheduleLoop(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options, sc *Scratch) (*IGraph, int, []int, error) {
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, 0, nil, err
	}
	length, maxLive, serr := referenceRun(ig, ii, opts, sc)
	if zeroBusLat {
		// Schedule under real latencies on a second arena, so the relaxed
		// graph stays in this one, and adopt those times for it when they
		// beat the relaxed schedule: the adopted schedule is no longer
		// than theirs.
		real := scratchPool.Get()
		defer scratchPool.Put(real)
		if realIG, err := real.buildIGraph(p, m, false); err == nil {
			if rlen, _, rerr := referenceRun(realIG, ii, opts, real); rerr == nil && (serr != nil || rlen < length) {
				if alen, alive, aerr := admit(ig, ii, real.time, opts, sc); aerr == nil {
					sc.time = append(sc.time[:0], real.time...)
					return ig, alen, alive, nil
				}
				if serr == nil {
					maxLive = computeMaxLive(ig, ii, sc.time, sc) // admit counted into the same table
				}
			}
		}
	}
	if serr != nil {
		return nil, 0, nil, serr
	}
	return ig, length, maxLive, nil
}

// TestRunMatchesReference holds run to referenceRun attempt by attempt:
// random loops and every seventh suite loop, placed by the partitioner, on
// a 2- and a 4-cluster machine, one whose clusters lack classes of units
// and the unified one, real and zero bus latency, plain, without the
// register check and in forced topological order, up the II ladder from 1
// to past the first interval that schedules, each side on an arena kept
// across all its attempts. One rule the retired attempt did not know is
// applied to its failures: outside forced topological order, an interval
// below the instance graph's recurrence bound fails with the bound.
func TestRunMatchesReference(t *testing.T) {
	hetero, err := machine.NewHetero(1, 2, 32, [][ddg.NumClasses]int{{2, 0, 1}, {1, 2, 1}, {0, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	machines := []machine.Config{machine.MustParse("2c1b2l64r"), machine.MustParse("4c2b2l64r"), hetero, machine.Unified(64)}
	random, stride := 30, 7
	if testing.Short() || raceDetector {
		random, stride = 10, 29
	}
	rng := rand.New(rand.NewSource(49))
	var loops []*ddg.Graph
	for range random {
		g, _ := randomPlacedLoop(rng, machines[0], 6+rng.Intn(40))
		loops = append(loops, g)
	}
	for i, l := range workload.SPECfp95() {
		if i%stride == 0 {
			loops = append(loops, l.Graph)
		}
	}
	now, then := NewScratch(), NewScratch()
	attempts, failures, reclassified := 0, 0, 0
	for _, m := range machines {
		for _, g := range loops {
			p := NewPlacement(g, partition.InitialScratch(g, m, 4, partition.NewScratch()))
			for _, zeroBus := range []bool{false, true} {
				for _, opts := range []Options{{}, {SkipRegisterCheck: true}, {ForceTopoOrder: true}} {
					for ii, left := 1, 3; ii < 512 && left > 0; ii++ {
						ig, err := now.buildIGraph(p, m, zeroBus)
						if err != nil {
							t.Fatal(err)
						}
						refIG, err := then.buildIGraph(p, m, zeroBus)
						if err != nil {
							t.Fatal(err)
						}
						length, live, err := run(ig, ii, opts, now)
						refLength, refLive, refErr := referenceRun(refIG, ii, opts, then)
						attempts++
						label := fmt.Sprintf("%s on %s (zero bus %v, %+v) at II=%d", g.Name, m.Name, zeroBus, opts, ii)
						switch {
						case (err == nil) != (refErr == nil):
							t.Fatalf("%s: error %v, want %v", label, err, refErr)
						case err != nil:
							failures++
							want := *refErr.(*Error)
							if bound, below := belowRecurrence(refIG, ii, NewScratch()); below && !opts.ForceTopoOrder {
								// Below the bound the failure is the bound's, whatever
								// the priority order ran into.
								if want.Kind != FailWindow {
									reclassified++
								}
								want = Error{Kind: FailWindow, Inst: -1, II: ii, Bound: bound}
							}
							if *err.(*Error) != want {
								t.Fatalf("%s: error %+v, want %+v", label, *err.(*Error), want)
							}
						default:
							left--
							if length != refLength || !slices.Equal(live, refLive) || !slices.Equal(now.time, then.time) {
								t.Fatalf("%s: length %d, MaxLive %v, times %v\nwant %d, %v, %v", label, length, live, now.time, refLength, refLive, then.time)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d attempts, %d failed, %d of them reclassified as below the recurrence bound", attempts, failures, reclassified)
}

// carryTimes gives each instance of to the issue time fromTimes gives its
// counterpart in from, whose loop numbers node v of to's loop perm[v]: the
// same node on the same cluster, or the node's copy.
func carryTimes(to, from *IGraph, perm []int32, fromTimes, times []int) {
	for i, in := range to.Inst {
		ci := from.CopyIdx[perm[in.Orig]]
		if !in.IsCopy {
			ci = from.InstanceAt(int(perm[in.Orig]), int(in.Cluster))
		}
		times[i] = fromTimes[ci]
	}
}
