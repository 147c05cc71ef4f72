// Package vliwsim executes modulo schedules and checks them against a
// direct evaluation of the source loop. Every operation computes a
// deterministic synthetic value (a hash mix of its operands), loads are
// pure functions of their address operands and the iteration number (the
// machine's memory hierarchy is centralized and all accesses hit, §2.1/§4),
// and stores record their operand streams. A schedule is semantically
// correct — including all replicas, removed originals and bus copies — iff
// its store trace equals the reference trace.
//
// This is the strongest end-to-end check in the repository: it catches any
// transformation bug that still produces a structurally valid schedule
// (wrong replication targets, mis-wired copy operands, bad loop-carried
// distances after expansion, ...).
package vliwsim

import (
	"cmp"
	"fmt"
	"slices"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/sched"
)

// StoreRecord is one store executed by the loop: the original store node,
// the iteration it belongs to, and the mixed value of its operands.
type StoreRecord struct {
	Node  int
	Iter  int
	Value uint64
}

// Trace is the observable behavior of a loop execution: every store, in a
// canonical order.
type Trace struct {
	Stores []StoreRecord
}

// Equal reports whether two traces are identical.
func (t *Trace) Equal(o *Trace) bool {
	if len(t.Stores) != len(o.Stores) {
		return false
	}
	for i := range t.Stores {
		if t.Stores[i] != o.Stores[i] {
			return false
		}
	}
	return true
}

// Diff returns a human-readable description of the first difference, or "".
func (t *Trace) Diff(o *Trace) string {
	if len(t.Stores) != len(o.Stores) {
		return fmt.Sprintf("store counts differ: %d vs %d", len(t.Stores), len(o.Stores))
	}
	for i := range t.Stores {
		if t.Stores[i] != o.Stores[i] {
			return fmt.Sprintf("store %d differs: %+v vs %+v", i, t.Stores[i], o.Stores[i])
		}
	}
	return ""
}

// canonicalize orders the records by (Iter, Node, Value). Value is part of
// the key so the order is total: the records of a replicated store share
// Iter and Node, and when a broken schedule makes them disagree the Diff
// text must not depend on which replica the sort happened to put first.
func (t *Trace) canonicalize() {
	slices.SortFunc(t.Stores, func(a, b StoreRecord) int {
		if c := cmp.Compare(a.Iter, b.Iter); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Node, b.Node); c != 0 {
			return c
		}
		return cmp.Compare(a.Value, b.Value)
	})
}

// ScheduleError reports a structurally malformed schedule: an instance or
// edge referencing a node absent from the graph, an issue-time table of the
// wrong length, or a non-positive II. It is a typed error (not a panic) so
// corpus-scale harnesses can record the defect and keep running.
type ScheduleError struct {
	// Inst is the offending instance index, or -1 when the defect is not
	// tied to one instance.
	Inst int
	// Detail describes the defect.
	Detail string
}

func (e *ScheduleError) Error() string {
	if e.Inst >= 0 {
		return fmt.Sprintf("vliwsim: malformed schedule: instance %d: %s", e.Inst, e.Detail)
	}
	return fmt.Sprintf("vliwsim: malformed schedule: %s", e.Detail)
}

// validate checks the structural invariants Execute indexes by. It returns
// a *ScheduleError describing the first violation, or nil.
func validate(s *sched.Schedule) error {
	if s == nil || s.IG == nil || s.IG.G == nil {
		return &ScheduleError{Inst: -1, Detail: "nil schedule, instance graph, or source graph"}
	}
	if s.II <= 0 {
		return &ScheduleError{Inst: -1, Detail: fmt.Sprintf("non-positive II %d", s.II)}
	}
	ig := s.IG
	n := ig.NumInstances()
	if len(s.Time) != n {
		return &ScheduleError{Inst: -1, Detail: fmt.Sprintf("issue-time table has %d entries for %d instances", len(s.Time), n)}
	}
	nodes := ig.G.NumNodes()
	for i := 0; i < n; i++ {
		if o := ig.Inst[i].Orig; o < 0 || o >= nodes {
			return &ScheduleError{Inst: i, Detail: fmt.Sprintf("references node %d of a %d-node graph", o, nodes)}
		}
	}
	for i := range ig.Edges {
		e := &ig.Edges[i]
		if e.Src < 0 || int(e.Src) >= n || e.Dst < 0 || int(e.Dst) >= n {
			return &ScheduleError{Inst: -1, Detail: fmt.Sprintf("edge %d endpoints (%d,%d) out of range for %d instances", i, e.Src, e.Dst, n)}
		}
	}
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 { return (h ^ x) * fnvPrime }

// opSeed gives every operation kind its own value function.
func opSeed(op ddg.OpKind) uint64 { return mix(fnvOffset, uint64(op)*2654435761) }

// The value functions are split into a per-node part (computed once per
// call into the unit tables) and a per-iteration part (applied per event).

// initSeed is the iteration-independent part of node v's pre-loop values.
func initSeed(v int) uint64 { return mix(fnvOffset, uint64(v+1)*0x9e3779b97f4a7c15) }

// initialAt is the value a node with the given initSeed produced "before"
// the loop started, at negative iteration iter (reached through
// loop-carried dependences).
func initialAt(seed uint64, iter int) uint64 { return mix(seed, uint64(int64(iter))+0x1234) }

// loadSalt is the node identity a load folds into its value.
func loadSalt(v int) uint64 { return uint64(v+1) * 0xdeadbeef }

// loadValue finishes a load: h mixes its address operands; two loads of
// different arrays differ, and the same load in different iterations
// differs.
func loadValue(h, salt uint64, iter int) uint64 { return mix(mix(h, salt), uint64(iter)+1) }

// Reference evaluates the source loop directly for the given iteration
// count and returns its trace.
func Reference(g *ddg.Graph, iters int) *Trace {
	sc := getScratch()
	defer putScratch(sc)
	iters = max(iters, 0)
	sc.loadGraph(g)
	tr := &Trace{Stores: ownedStores(sc.perIter * iters)}
	sc.evaluate(g, iters, tr.Stores)
	return tr
}

// Execute runs the modulo schedule for the given iteration count on a
// cycle-accurate event order and returns its trace plus the cycle on which
// the last operation completes. The schedule must verify (sched.Verify);
// Execute re-checks the property it depends on — that every operand is
// produced before it is read — and returns a typed *ScheduleError instead
// of panicking when the schedule is structurally malformed.
func Execute(s *sched.Schedule, iters int) (*Trace, int, error) {
	if err := validate(s); err != nil {
		return nil, 0, err
	}
	sc := getScratch()
	defer putScratch(sc)
	iters = max(iters, 0)
	sc.loadSchedule(s)
	tr := &Trace{Stores: ownedStores(sc.perIter * iters)}
	lastDone, _, err := sc.run(s, iters, 0, tr.Stores)
	if err != nil {
		return nil, 0, err
	}
	tr.canonicalize()
	return tr, lastDone, nil
}

// ownedStores allocates the records of a Trace handed to a caller; an
// empty trace keeps the nil slice it always had.
func ownedStores(n int) []StoreRecord {
	if n == 0 {
		return nil
	}
	return make([]StoreRecord, n)
}

// InitialValue exposes the synthetic pre-loop value of node v at negative
// iteration iter, for other execution engines (codegen's pipeline
// simulator) that must agree with Reference. It is keyed by the original
// node ID so replicas and the reference agree.
func InitialValue(v, iter int) uint64 { return initialAt(initSeed(v), iter) }

// NodeValue exposes the synthetic operation semantics: the result of node v
// given its operand values in edge order.
func NodeValue(g *ddg.Graph, v, iter int, operands []uint64) uint64 {
	op := g.Nodes[v].Op
	h := opSeed(op)
	for _, x := range operands {
		h = mix(h, x)
	}
	if op == ddg.OpLoad {
		h = loadValue(h, loadSalt(v), iter)
	}
	return h
}

// StoreValue mixes store operands into the value recorded in traces.
func StoreValue(operands []uint64) uint64 {
	h := opSeed(ddg.OpStore)
	for _, x := range operands {
		h = mix(h, x)
	}
	return h
}

// Report is the result of measuring a schedule against the reference
// evaluation of its source loop.
type Report struct {
	// Iters is the simulated iteration count.
	Iters int `json:"iters"`
	// LastDone is the cycle on which the last operation completed;
	// ModelLastDone is the paper's prediction, (Iters−1)·II + Length.
	LastDone      int `json:"last_done"`
	ModelLastDone int `json:"model_last_done"`
	// CyclesPerIter is the measured steady-state initiation interval: the
	// per-iteration growth of the completion cycle with the pipeline full.
	// A sound modulo schedule sustains exactly II.
	CyclesPerIter float64 `json:"cycles_per_iter"`
	// TraceDiff describes the first difference between the schedule's
	// store trace and the reference trace, or "" when they agree.
	TraceDiff string `json:"trace_diff,omitempty"`
}

// steadySpan is the extra-iteration window Measure uses to observe the
// per-iteration completion increment in steady state.
const steadySpan = 4

// Measure executes the schedule, compares its trace against the reference,
// and measures steady-state cycles/iteration empirically: one execution of
// iters+steadySpan iterations yields the trace and completion cycle of the
// first iters and the completion cycle of all of them, and the difference
// of the two completion cycles over the span is the measured rate — so
// harnesses need not recompute it from the model they are trying to
// validate. Structural defects and dependence violations surface as errors
// (of the longer execution: an operand that is late in iteration k is late
// in every iteration from the edge's distance on, so whenever iters exceeds
// every edge distance the first violation lies within the first iters
// iterations); semantic and throughput divergences are reported in the
// Report for the caller to judge.
func Measure(s *sched.Schedule, iters int) (*Report, error) {
	if err := validate(s); err != nil {
		return nil, err
	}
	sc := getScratch()
	defer putScratch(sc)
	iters = max(iters, 1)
	// Neither trace outlives the call, so both live in the scratch.
	sc.loadSchedule(s)
	sc.got = arena.Grown(sc.got, sc.perIter*iters)
	lastDone, lastLonger, err := sc.run(s, iters, steadySpan, sc.got)
	if err != nil {
		return nil, err
	}
	got := Trace{Stores: sc.got}
	got.canonicalize()
	g := s.IG.G
	sc.loadGraph(g)
	sc.want = arena.Grown(sc.want, sc.perIter*iters)
	sc.evaluate(g, iters, sc.want)
	return &Report{
		Iters:         iters,
		LastDone:      lastDone,
		ModelLastDone: (iters-1)*s.II + s.Length,
		CyclesPerIter: float64(lastLonger-lastDone) / steadySpan,
		TraceDiff:     got.Diff(&Trace{Stores: sc.want}),
	}, nil
}

// Check executes the schedule and compares it against the reference
// evaluation of the source loop; it also validates the paper's execution-
// time model: the last completion cycle is (iters−1)·II + Length, and the
// steady-state throughput is exactly II cycles/iteration.
func Check(s *sched.Schedule, iters int) error {
	rep, err := Measure(s, iters)
	if err != nil {
		return err
	}
	if rep.TraceDiff != "" {
		return fmt.Errorf("vliwsim: trace mismatch: %s", rep.TraceDiff)
	}
	if rep.LastDone != rep.ModelLastDone {
		return fmt.Errorf("vliwsim: completion cycle %d, model predicts %d ((N-1)·II + length)", rep.LastDone, rep.ModelLastDone)
	}
	if rep.CyclesPerIter != float64(s.II) {
		return fmt.Errorf("vliwsim: measured %.2f cycles/iteration, claimed II %d", rep.CyclesPerIter, s.II)
	}
	return nil
}
