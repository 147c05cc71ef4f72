package partition

import (
	"clusched/internal/arena"
	"clusched/internal/ddg"
)

// Scratch is the partitioner's reusable allocation arena: the refinement
// state, the coarsening work set and the macro-assignment buffers are
// resized in place across calls instead of reallocated. The pipeline
// carries one Scratch across the II attempts of a compilation (Refine runs
// once per attempt) and the driver's workers reuse one across jobs. Not
// safe for concurrent use; the zero value is ready.
type Scratch struct {
	// edgeWeights
	w      []int
	timing ddg.TimingScratch

	// refineState
	st      refineState
	counts  [][ddg.NumClasses]int
	fu      []int
	classII []int
	resII   []int
	consIn  []int32
	comm    []int8
	// refine's read-only candidate evaluation
	predMult []int32
	dcoms    []int
	wt       []int

	// coarsen
	ms      macroSet
	macroOf []int
	mcounts [][ddg.NumClasses]int
	msize   []int
	pairs   []macroPair
	keys    []uint64
	rep     []int
	matched []bool
	live    []int
	bySize  macrosBySize
	memFlat []int
	memOff  []int
	compact []int

	// assignMacros
	capacity  [][ddg.NumClasses]int
	loads     [][ddg.NumClasses]int
	order     []int
	clusterOf []int
	conn      []int

	// The two assignment slots the entry points hand out in turn (see
	// assignment).
	slots [2]Assignment
	next  int

	// converged records whether the last Initial/Refine call on this
	// scratch reached a refinement fixpoint (see Converged).
	converged bool
}

// Converged reports whether the most recent InitialScratch/RefineScratch
// call on this arena ran its refinement to a fixpoint — its final pass made
// no move — rather than exhausting the pass budget. The II search's
// skip-ahead rule requires a fixpoint to prove that re-refining the same
// assignment at a larger II is a no-op.
func (sc *Scratch) Converged() bool { return sc.converged }

// assignment returns the next of the arena's two assignment slots, sized
// for n nodes on k clusters with Cluster's contents unspecified. The slots
// alternate, so an assignment handed out by InitialScratch or RefineScratch
// is valid until the call after next on this arena: RefineScratch(a) never
// writes the a it reads, and a caller that keeps one longer clones it.
func (sc *Scratch) assignment(n, k int) *Assignment {
	a := &sc.slots[sc.next]
	sc.next ^= 1
	a.Cluster, a.K = grown(a.Cluster, n), k
	return a
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func grown[T any](buf []T, n int) []T  { return arena.Grown(buf, n) }
func zeroed[T any](buf []T, n int) []T { return arena.Zeroed(buf, n) }
