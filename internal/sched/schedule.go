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
	// predecessors and successors left no legal slot, or the II is below
	// the instance graph's recurrence bound (Error.Bound). This is the
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
	// Bound, when not 0, is the recurrence bound of the instance graph a
	// FailWindow refused the II below: every interval under it fails on
	// this placement (math.MaxInt: at every interval).
	Bound int
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
		if e.Bound != 0 {
			return fmt.Sprintf("sched: window: II=%d is below the recurrence bound %d", e.II, e.Bound)
		}
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

// run schedules the instance graph at the given II: first with the
// SMS-style priority order, and if that fails, once more with a plain
// topological order (which at sufficiently large II always places every
// node) and with the condensation-topological one. On failure the error of
// the first attempt is returned, as it carries the more meaningful cause.
// Below the graph's recurrence bound no order can place every instance, so
// there the fallbacks are not tried and the failure is the bound's: a
// FailWindow carrying it. An interval below a bound the arena already
// knows for its graph (igKey) is refused without placing anything.
//
// Temporaries are resized in place inside sc instead of reallocated, and
// nothing is copied out: the schedule found is sc.time, with its length
// and register pressure returned, and the caller accepts it (accept) or
// not. Callers running many attempts (the II search) share one Scratch
// across them. Everything it returns lives in sc, a *Error included, valid
// until the arena's next attempt like everything else the attempt built.
func run(ig *IGraph, ii int, opts Options, sc *Scratch) (length int, maxLive []int, err error) {
	// The first order's failure is the one reported; the fallback orders
	// fail into the other slot.
	first, fallback := &sc.errs[0], &sc.errs[1]
	if ii <= 0 {
		*first = Error{Kind: FailWindow, Inst: -1, II: ii}
		return 0, nil, first
	}
	if opts.ForceTopoOrder {
		tm := computeIGTiming(ig, ii, sc)
		if length, maxLive, ok := runWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, first); ok {
			return length, maxLive, nil
		}
		return 0, nil, first
	}
	if bound, _ := sc.knownRecurrence(ig); ii < bound {
		*first = Error{Kind: FailWindow, Inst: -1, II: ii, Bound: bound}
		return 0, nil, first
	}
	tm := computeIGTiming(ig, ii, sc)
	if length, maxLive, ok := runWithOrder(ig, ii, priorityOrder(ig, ii, tm, sc), tm, opts, sc, first); ok {
		return length, maxLive, nil
	}
	if first.Kind == FailRegisters {
		return 0, nil, first // a register failure is definitive for this II
	}
	if bound, below := belowRecurrence(ig, ii, sc); below {
		*first = Error{Kind: FailWindow, Inst: -1, II: ii, Bound: bound}
		return 0, nil, first
	}
	_, order := igTopo(ig, sc)
	if length, maxLive, ok := runWithOrder(ig, ii, order, tm, opts, sc, fallback); ok {
		return length, maxLive, nil
	}
	if length, maxLive, ok := runWithOrder(ig, ii, igTopoAll(ig, tm, sc), tm, opts, sc, fallback); ok {
		return length, maxLive, nil
	}
	return 0, nil, first
}

// runWithOrder places the instances in the given order, into sc.time, and
// returns the schedule's length and register pressure; on failure it
// returns false and says why in *fail.
func runWithOrder(ig *IGraph, ii int, order []int32, tm *ddg.Timing, opts Options, sc *Scratch, fail *Error) (int, []int, bool) {
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
			foundAt, found = rt.earliest(inst, op, estart, min(lstart-estart+1, ii))
		case hasSucc:
			foundAt, found = rt.latest(inst, op, lstart, ii)
		default: // preds only, or no scheduled neighbors
			if !hasPred {
				estart = tm.ASAP[v]
			}
			foundAt, found = rt.earliest(inst, op, estart, ii)
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

// accept is the one place a Schedule is built for retention and the one
// time anything leaves the arena. What is arena-resident is copied at exact
// size — one struct, one []int (Time, MaxLive, the placement's Home), Inst,
// Edges, one []int32 for the six index tables, Replicas — and a graph or a
// placement that owns its memory is shared: each by its own mark, since an
// arena graph may carry a placement its caller owns.
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
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	return adopt(ig, ii, times, opts, sc)
}

// adopt is Adopt with its working memory in sc. ig may be a graph still in
// sc's arena and times a buffer of sc: every check runs on them in place,
// and only a schedule that passed all of them is copied out. Its callers
// are the pooled doors, so a refusal is a heap *Error the caller may keep.
func adopt(ig *IGraph, ii int, times []int, opts Options, sc *Scratch) (*Schedule, error) {
	length, maxLive, err := admit(ig, ii, times, opts, sc)
	if err != nil {
		return nil, err
	}
	return accept(ig, ii, length, times, maxLive), nil
}

// admit is adopt without the acceptance: it runs every check and returns
// the times' length and register pressure, the latter in sc.
func admit(ig *IGraph, ii int, times []int, opts Options, sc *Scratch) (int, []int, error) {
	if len(times) != ig.NumInstances() {
		return 0, nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: "time vector size mismatch"}
	}
	s := Schedule{IG: ig, II: ii, Time: times}
	if ii <= 0 {
		// The stage count and the pressure table below divide by and size
		// with the II; let verify word the refusal.
		return 0, nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: verify(&s, sc).Error()}
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
		return 0, nil, &Error{Kind: FailWindow, Inst: -1, II: ii, Detail: err.Error()}
	}
	if !opts.SkipRegisterCheck {
		for c, live := range s.MaxLive {
			if live > ig.M.Regs {
				return 0, nil, &Error{Kind: FailRegisters, Inst: -1,
					II: ii, Cluster: c, Live: live, Regs: ig.M.Regs}
			}
		}
	}
	return s.Length, s.MaxLive, nil
}

// Prove is the one door for a schedule from outside the process — a wire
// payload, or a disk-cache entry as it is decoded: the instance graph
// built and the times adopted on a pooled arena, with the foreign placement
// written straight into it. place fills the arena's placement of g on m's
// clusters — a home and an instance set per node, in range — and the
// placement is expanded; times, one issue time per instance of the graph
// it expands to, is then put through every check Adopt runs. Only a
// schedule that passed is copied out of the arena, once, at exact size,
// its placement (Schedule.IG.P) inside the same object.
//
// The error is place's own, the placement's when the instance graph cannot
// be built, or a *Error when the times do not hold.
func Prove(g *ddg.Graph, m machine.Config, zeroBusLat bool, ii int, opts Options,
	place func(home []int, replicas []ClusterSet) error, times []int) (*Schedule, error) {
	sc := scratchPool.Get()
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
	return adopt(ig, ii, times, opts, sc)
}

// Relabel moves s, a schedule accepted for a loop, onto g, the same loop
// under another numbering (carry), and writes the result over s's own
// memory: every vector keeps its length, so nothing is allocated. s must
// own its placement, as every accepted schedule of an arena placement
// does; a refused move leaves s as it was.
func (sc *Scratch) Relabel(s *Schedule, g *ddg.Graph, perm []int32) error {
	ig, err := sc.carry(s.IG, s.Time, g, perm)
	if err != nil {
		return err
	}
	from := s.IG
	copy(s.Time, sc.time)
	copy(from.P.Home, ig.P.Home)
	copy(from.P.Replicas, ig.P.Replicas)
	from.P.G, from.G = g, g
	copy(from.Inst, ig.Inst)
	copy(from.Edges, ig.Edges)
	for _, t := range [...]struct{ dst, src []int32 }{
		{from.CopyIdx, ig.CopyIdx}, {from.instIdx, ig.instIdx}, {from.outOff, ig.outOff},
		{from.inOff, ig.inOff}, {from.outIdx, ig.outIdx}, {from.inIdx, ig.inIdx},
	} {
		copy(t.dst, t.src)
	}
	return nil
}

// Relabeled is Relabel into a schedule of its own, accepted out of a pooled
// arena once; s is left as it is.
func (s *Schedule) Relabeled(g *ddg.Graph, perm []int32) (*Schedule, error) {
	sc := scratchPool.Get()
	defer scratchPool.Put(sc)
	ig, err := sc.carry(s.IG, s.Time, g, perm)
	if err != nil {
		return nil, err
	}
	return accept(ig, s.II, s.Length, sc.time, s.MaxLive), nil
}

// carry is the one move of a schedule between numberings: node v of g is
// node perm[v] of from's loop. It builds in sc g's instance graph under
// from's placement carried through perm, and gives each instance the time
// fromTimes gives its counterpart (the same node on the same cluster, or
// the node's copy) in sc.time; length, stage count and MaxLive do not
// depend on the numbering. It checks only that perm keeps every node's
// operation and the instance and edge counts: a ddg.Presentation's Perm is
// an isomorphism by construction, and pipeline.RemapResult matches every
// edge before it calls.
func (sc *Scratch) carry(from *IGraph, fromTimes []int, g *ddg.Graph, perm []int32) (*IGraph, error) {
	p := sc.placement(g, from.P.K)
	for v, pv := range perm {
		if g.Nodes[v].Op != from.G.Nodes[pv].Op {
			return nil, fmt.Errorf("sched: relabel: node %d is not node %d's operation", v, pv)
		}
		p.Home[v], p.Replicas[v] = from.P.Home[pv], from.P.Replicas[pv]
	}
	// The placement is an isomorphic image of one the search validated.
	ig, err := sc.expand(p, from.M, from.commLat != from.busSlots)
	if err != nil {
		return nil, err
	}
	if len(ig.Inst) != len(from.Inst) || len(ig.Edges) != len(from.Edges) {
		return nil, fmt.Errorf("sched: relabel: %d instances and %d edges, want %d and %d",
			len(ig.Inst), len(ig.Edges), len(from.Inst), len(from.Edges))
	}
	sc.time = grown(sc.time, len(ig.Inst))
	for i, in := range ig.Inst {
		ci := from.CopyIdx[perm[in.Orig]]
		if !in.IsCopy {
			ci = from.InstanceAt(int(perm[in.Orig]), int(in.Cluster))
		}
		sc.time[i] = fromTimes[ci]
	}
	return ig, nil
}

// ScheduleLoopScratch builds the instance graph for a placement and
// schedules it, over a shared scratch arena: the pipeline's II search passes
// the same Scratch to every attempt, so the instance graph, reservation
// table and every ordering buffer are recycled instead of reallocated per
// II. The scheduler breaks ties by instance order, which follows node
// numbering, so a placement of a loop that is not presented (ddg.Graph's
// Presented) is scheduled on its loop's canonical presentation and the
// schedule carried back onto p's loop (carry, in a second arena): any
// numbering of a placement gets the same schedule up to that numbering,
// the one the pipeline's search accepted.
//
// In zero-bus-latency mode the real-latency schedule is made too, on a
// second arena, and its times (which always satisfy the relaxed
// constraints) are adopted when the relaxed problem defeats the greedy
// scheduler at this II or schedules it longer: the upper-bound mode never
// does worse than the real machine on the same placement.
func ScheduleLoopScratch(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options, sc *Scratch) (*Schedule, error) {
	if p.G.Presented() {
		ig, length, maxLive, err := scheduleLoop(p, m, ii, zeroBusLat, opts, sc)
		if err != nil {
			return nil, err
		}
		return accept(ig, ii, length, sc.time, maxLive), nil
	}
	from, length, maxLive, err := scheduleLoop(p.Present(&sc.present, &sc.presented), m, ii, zeroBusLat, opts, sc)
	if err != nil {
		return nil, err
	}
	if sc.back == nil {
		sc.back = NewScratch()
	}
	ig, err := sc.back.carry(from, sc.time, p.G, sc.present.Perm)
	if err != nil {
		return nil, err
	}
	ig.P = p // the carried placement equals p: share p, as a build of p would
	return accept(ig, ii, length, sc.back.time, maxLive), nil
}

// scheduleLoop schedules p's loop as it is numbered and accepts nothing:
// the schedule found is sc.time on the instance graph it returns, with its
// length and register pressure, valid until sc's next attempt.
func scheduleLoop(p *Placement, m machine.Config, ii int, zeroBusLat bool, opts Options, sc *Scratch) (*IGraph, int, []int, error) {
	ig, err := sc.buildIGraph(p, m, zeroBusLat)
	if err != nil {
		return nil, 0, nil, err
	}
	length, maxLive, serr := run(ig, ii, opts, sc)
	if zeroBusLat {
		// Schedule under real latencies on a second arena, so the relaxed
		// graph stays in this one, and adopt those times for it when they
		// beat the relaxed schedule: the adopted schedule is no longer
		// than theirs.
		real := scratchPool.Get()
		defer scratchPool.Put(real)
		if realIG, err := real.buildIGraph(p, m, false); err == nil {
			if rlen, _, rerr := run(realIG, ii, opts, real); rerr == nil && (serr != nil || rlen < length) {
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
