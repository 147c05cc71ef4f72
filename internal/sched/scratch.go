package sched

import (
	"sync"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/partition"
)

// Scratch is the scheduler's reusable allocation arena. Every temporary the
// scheduler needs — the instance graph under construction, the reservation
// table, timing and ordering buffers, liveness tables — lives in one Scratch
// and is resized in place instead of reallocated, so a steady-state schedule
// attempt allocates (almost) nothing. One Scratch serves one attempt at a
// time: the pipeline carries one across the II attempts of a compilation
// and the driver reuses it across all jobs of a worker. A Scratch is not
// safe for concurrent use; its zero value is ready.
//
// Everything an attempt builds lives here — its placement (Placement), its
// instance graph, the error of a failed schedule — and is valid until the
// arena's next attempt. What outlives the attempt leaves exactly once, on
// success, as one accepted schedule (accept).
type Scratch struct {
	// Placement (its Home and Replicas are the recycled buffers)
	place Placement

	// buildIGraph
	ig      IGraph
	inst    []Instance
	edges   []IEdge
	copyIdx []int32
	instIdx []int32
	outOff  []int32
	inOff   []int32
	outIdx  []int32
	inIdx   []int32

	// computeIGTiming
	timing igTiming
	asap   []int
	alap   []int

	// igTopo (also used by computeIGTiming)
	indeg    []int32
	topoBuf  []int32
	topoSeen []bool

	// igSCCs: component storage is flat + offsets; views are cut on demand.
	sccIndex  []int32
	sccLow    []int32
	sccStack  []int32
	sccFrames []sccFrame
	onStack   []bool
	compFlat  []int32
	compOff   []int32

	// igTopoAll
	allOrder []int32

	// buildGroups / priorityOrder
	recs      []recComp
	groupFlat []int32
	groupOff  []int32
	grouped   []bool
	inMark    marks
	reachA    []bool
	reachB    []bool
	reachC    []bool
	reachD    []bool
	reachBuf  []int32
	priOrder  []int32
	inOrder   []bool
	inGroup   marks
	seedMark  marks
	ready     []int32

	// runWithOrder; errs are RunScratch's two failure slots
	rt     mrt
	time   []int
	placed []bool
	errs   [2]Error

	// computeMaxLive
	pressure []int32
	maxLive  []int

	// verify's recounted reservation tables
	verifyFU  []int
	verifyBus []int

	// UASAssignScratch (the uas strategy's greedy sweep)
	uasTiming  ddg.TimingScratch
	uasOrder   []int32
	uasTime    []int
	uasCluster []int
	uasAssign  partition.Assignment
	uasPlaced  []bool
	uasComm    []bool
	uasLoad    []int
	uasMark    marks
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool lends arenas to the entry points that take none (Prove,
// Adopt, Verify, BuildIGraph): they run once per foreign or accepted
// schedule rather than once per II attempt, so they borrow instead of
// making their callers carry one.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// grown and zeroed are the package-local shorthands for the shared arena
// primitives.
func grown[T any](buf []T, n int) []T  { return arena.Grown(buf, n) }
func zeroed[T any](buf []T, n int) []T { return arena.Zeroed(buf, n) }

type marks = arena.Marks
