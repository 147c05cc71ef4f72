package sched

import (
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// FailKind classifies why a schedule attempt at some II failed; the driver
// uses it to attribute II increases (paper Fig. 1).
type FailKind int

const (
	// FailNone means success.
	FailNone FailKind = iota
	// FailWindow means a node's dependence window closed: its scheduled
	// predecessors and successors left no legal slot. This is the
	// recurrence-driven failure mode.
	FailWindow
	// FailResource means every slot in the node's window was occupied
	// (functional units or buses full).
	FailResource
	// FailRegisters means the schedule exists but some cluster's MaxLive
	// exceeds its register file.
	FailRegisters
)

// String names the failure kind.
func (k FailKind) String() string {
	switch k {
	case FailNone:
		return "none"
	case FailWindow:
		return "window"
	case FailResource:
		return "resource"
	case FailRegisters:
		return "registers"
	}
	return fmt.Sprintf("FailKind(%d)", int(k))
}

// Error reports a failed schedule attempt. It carries the raw facts of the
// failure; the message is rendered on demand, so failed attempts on the II
// search's hot path pay no formatting cost.
type Error struct {
	Kind FailKind
	// Inst is the instance that could not be placed (copy instances point
	// at bus pressure), or -1 for register failures.
	Inst int32
	// IsCopy records whether the unplaceable instance was a bus copy.
	IsCopy bool
	// II is the initiation interval of the failed attempt.
	II int
	// EStart and LStart bound the closed window of a FailWindow.
	EStart, LStart int
	// Cluster, Live and Regs describe a FailRegisters overflow.
	Cluster, Live, Regs int
	// Detail optionally carries extra context from cold paths (Adopt).
	Detail string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("sched: %s: %s", e.Kind, e.Detail)
	}
	switch e.Kind {
	case FailWindow:
		if e.Inst < 0 {
			return fmt.Sprintf("sched: window: infeasible at II=%d", e.II)
		}
		return fmt.Sprintf("sched: window: window closed for instance %d: estart=%d > lstart=%d at II=%d",
			e.Inst, e.EStart, e.LStart, e.II)
	case FailResource:
		return fmt.Sprintf("sched: resource: no free slot for instance %d (copy=%v) in its window at II=%d",
			e.Inst, e.IsCopy, e.II)
	case FailRegisters:
		return fmt.Sprintf("sched: registers: cluster %d MaxLive=%d exceeds %d registers at II=%d",
			e.Cluster, e.Live, e.Regs, e.II)
	}
	return fmt.Sprintf("sched: %s at II=%d", e.Kind, e.II)
}

// Schedule is a modulo schedule of an instance graph at a fixed II.
type Schedule struct {
	IG *IGraph
	II int
	// Time[i] is the absolute issue cycle of instance i within the flat
	// (single-iteration) schedule; row = Time mod II, stage = Time / II.
	Time []int
	// Length is the schedule length of one iteration: max issue + latency.
	Length int
	// SC is the stage count, ceil(Length/II).
	SC int
	// MaxLive[c] is the register pressure of cluster c.
	MaxLive []int
}

// Options tune a schedule attempt.
type Options struct {
	// SkipRegisterCheck disables the register-pressure failure (used by
	// experiments isolating bus effects and by tests).
	SkipRegisterCheck bool
	// ForceTopoOrder bypasses the SMS-style priority ordering and schedules
	// in plain condensation-topological order — the ablation showing what
	// the swing ordering buys (§2.3.2 / [18]).
	ForceTopoOrder bool
}

// Run schedules the instance graph at the given II: first with the
// SMS-style priority order, and if that fails, once more with a plain
// topological order (which at sufficiently large II always places every
// node). On failure the error of the first attempt is returned, as it
// carries the more meaningful cause.
func Run(ig *IGraph, ii int, opts Options) (*Schedule, error) {
	s, err := RunScratch(ig, ii, opts, NewScratch())
	return s, owned(err)
}

// owned returns err with a *Error copied out of the arena it may live in:
// the doors that take no arena return values their caller may keep.
func owned(err error) error {
	if e, ok := err.(*Error); ok {
		c := *e
		return &c
	}
	return err
}

// RunScratch is Run with an explicit scratch arena: temporaries are resized
// in place inside sc instead of reallocated, and only an accepted schedule
// is copied out of the arena. Callers running many attempts (the II search)
// share one Scratch across them. A *Error it returns lives in sc too, valid
// until the arena's next attempt like everything else the attempt built.
func RunScratch(ig *IGraph, ii int, opts Options, sc *Scratch) (*Schedule, error) {
	// The first order's failure is the one reported; the fallback orders
	// fail into the other slot.
	first, fallback := &sc.errs[0], &sc.errs[1]
	if ii <= 0 {
		*first = Error{Kind: FailWindow, Inst: -1, II: ii}
		return nil, first
	}
	tm := computeIGTiming(ig, ii, sc)
	if opts.ForceTopoOrder {
		if s := runWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, first); s != nil {
			return s, nil
		}
		return nil, first
	}
	if s := runWithOrder(ig, ii, priorityOrder(ig, ii, tm, sc), tm, opts, sc, first); s != nil {
		return s, nil
	}
	if first.Kind == FailRegisters {
		return nil, first // a register failure is definitive for this II
	}
	if s := runWithOrder(ig, ii, igTopo(ig, sc), tm, opts, sc, fallback); s != nil {
		return s, nil
	}
	if s := runWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, fallback); s != nil {
		return s, nil
	}
	return nil, first
}

// runWithOrder places the instances in the given order; on failure it
// returns nil and says why in *fail.
func runWithOrder(ig *IGraph, ii int, order []int32, tm *igTiming, opts Options, sc *Scratch, fail *Error) *Schedule {
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
				return nil
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
				estart = tm.asap[v]
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
			return nil
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
				return nil
			}
		}
	}
	return accept(ig, ii, length, time, maxLive)
}

// accept is the one place a Schedule is built for retention and the one
// time anything leaves the arena. What is arena-resident is copied at exact
// size — one struct, one []int (Time, MaxLive, the placement's Home), Inst,
// Edges, one []int32 for the six index tables, Replicas — and a graph or a
// placement that owns its memory is shared: each by its own mark, since a
// graph detached earlier may still point at an arena placement.
func accept(ig *IGraph, ii, length int, times, maxLive []int) *Schedule {
	out := &struct {
		s  Schedule
		ig IGraph
		p  Placement
	}{ig: *ig}
	if ig.scratch {
		out.ig.ownTables()
	}
	p := ig.P
	nt, nl, nh := len(times), len(maxLive), 0
	if p.scratch {
		nh = len(p.Home)
	}
	ints := make([]int, nt+nl+nh)
	copy(ints, times)
	copy(ints[nt:], maxLive)
	if p.scratch {
		out.p = Placement{G: p.G, K: p.K, Home: ints[nt+nl:], Replicas: make([]ClusterSet, len(p.Replicas))}
		copy(out.p.Home, p.Home)
		copy(out.p.Replicas, p.Replicas)
		out.ig.P = &out.p
	}
	out.s = Schedule{
		IG:      &out.ig,
		II:      ii,
		Time:    ints[:nt:nt],
		Length:  length,
		SC:      (length + ii - 1) / ii,
		MaxLive: ints[nt : nt+nl : nt+nl],
	}
	return &out.s
}

// Adopt builds a Schedule for ig from externally produced issue times (for
// instance, times found by scheduling the same placement under different
// edge latencies). The times are validated against ig's constraints; length,
// stage count and register pressure are recomputed.
func Adopt(ig *IGraph, ii int, times []int, opts Options) (*Schedule, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return adopt(ig, ii, times, opts, sc)
}

// adopt is Adopt with its working memory in sc. ig may be a graph still in
// sc's arena and times a buffer of sc: every check runs on them in place,
// and only a schedule that passed all of them is copied out. Its callers
// are the pooled doors, so a refusal is a heap *Error the caller may keep.
func adopt(ig *IGraph, ii int, times []int, opts Options, sc *Scratch) (*Schedule, error) {
	if len(times) != ig.NumInstances() {
		return nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: "time vector size mismatch"}
	}
	s := Schedule{IG: ig, II: ii, Time: times}
	if ii <= 0 {
		// The stage count and the pressure table below divide by and size
		// with the II; let verify word the refusal.
		return nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: verify(&s, sc).Error()}
	}
	for i := range ig.Inst {
		if l := times[i] + ig.Latency(int32(i)); l > s.Length {
			s.Length = l
		}
	}
	if s.Length == 0 {
		s.Length = 1
	}
	s.SC = (s.Length + ii - 1) / ii
	s.MaxLive = computeMaxLive(ig, ii, times, sc)
	if err := verify(&s, sc); err != nil {
		return nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: err.Error()}
	}
	if !opts.SkipRegisterCheck {
		for c, live := range s.MaxLive {
			if live > ig.M.Regs {
				return nil, &Error{Kind: FailRegisters, Inst: -1,
					II: ii, Cluster: c, Live: live, Regs: ig.M.Regs}
			}
		}
	}
	return accept(ig, ii, s.Length, times, s.MaxLive), nil
}

// Prove is the one door for a schedule this process did not search for — a
// wire or disk-cache payload, a cached result transplanted onto an
// isomorphic loop: BuildIGraph followed by Adopt, on a pooled arena, with
// the foreign placement and times written straight into it. place fills the
// arena's placement of g on m's clusters — a home and an instance set per
// node, in range — and the placement is expanded; times is then asked for
// the issue-time vector — it sees the instance graph, valid only during the
// call, and may fill and return buf (one slot per instance) or return a
// vector it already holds — and every check Adopt runs is run. Only a
// schedule that passed is copied out of the arena, once, at exact size, its
// placement (Schedule.IG.P) inside the same object.
//
// The error is place's or times' own, the placement's when the instance
// graph cannot be built, or a *Error when the times do not hold.
func Prove(g *ddg.Graph, m machine.Config, zeroBusLat bool, ii int, opts Options,
	place func(home []int, replicas []ClusterSet) error,
	times func(ig *IGraph, buf []int) ([]int, error)) (*Schedule, error) {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	p := sc.placement(g, m.Clusters)
	clear(p.Replicas) // a node place leaves out has no instance, which Validate refuses
	if err := place(p.Home, p.Replicas); err != nil {
		return nil, err
	}
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	sc.time = grown(sc.time, ig.NumInstances())
	t, err := times(ig, sc.time)
	if err != nil {
		return nil, err
	}
	return adopt(ig, ii, t, opts, sc)
}

// ScheduleLoop is a convenience wrapper: build the instance graph for a
// placement and schedule it. In zero-bus-latency mode, if the relaxed
// problem happens to defeat the greedy scheduler at this II, the real-
// latency schedule (whose times always satisfy the relaxed constraints) is
// adopted instead, so the upper-bound mode never does worse than the real
// machine.
func ScheduleLoop(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options) (*Schedule, error) {
	s, err := ScheduleLoopScratch(p, m, ii, zeroBusLat, opts, NewScratch())
	return s, owned(err)
}

// ScheduleLoopScratch is ScheduleLoop over a shared scratch arena: the
// pipeline's II search passes the same Scratch to every attempt, so the
// instance graph, reservation table and every ordering buffer are recycled
// instead of reallocated per II.
func ScheduleLoopScratch(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options, sc *Scratch) (*Schedule, error) {
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, err
	}
	s, serr := RunScratch(ig, ii, opts, sc)
	if serr == nil || !zeroBusLat {
		return s, serr
	}
	// Fallback for the Fig. 12 upper-bound mode: schedule under real
	// latencies (a fresh graph — the scratch one would alias the arena the
	// retry is about to reuse) and adopt those times.
	zeroIG := sc.ig.detach()
	realIG, err := BuildIGraph(p, m, false)
	if err != nil {
		return nil, serr
	}
	rs, rerr := Run(realIG, ii, opts)
	if rerr != nil {
		return nil, serr
	}
	if as, aerr := Adopt(zeroIG, ii, rs.Time, opts); aerr == nil {
		return as, nil
	}
	return nil, serr
}
