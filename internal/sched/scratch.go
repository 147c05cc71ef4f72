package sched

import (
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

	// ScheduleLoopScratch on a loop that is not presented: the loop's
	// canonical presentation, the placement carried onto it, and the arena
	// the loop's own instance graph is built in for the accepted schedule
	present   ddg.Presentation
	presented Placement
	back      *Scratch

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

	// what ig was built from; the bits mark igSCCs'/buildGroups'/igTopo's
	// and belowRecurrence's as ig's
	key                            igKey
	sccOK, groupsOK, topoOK, recOK bool

	// igTopo: the graph as ddg's walks read it, the walk's memory and its
	// last order
	arcs  ddg.Arcs
	order ddg.OrderScratch
	topo  []int32

	// computeIGTiming, and UASAssignScratch's timing of the loop
	timing ddg.TimingScratch

	// igSCCs: the walk's memory and its last result, views cut on demand
	sccs       ddg.SCCScratch
	compFlat   []int32
	compOff    []int32
	compCyclic []bool

	// igTopoAll
	allOrder []int32

	// belowRecurrence: recLo ≤ ig's recurrence bound ≤ recHi, and the
	// cycle walk's memory
	recLo, recHi int
	recIn        marks
	recDist      []int64
	recWalk      []int32 // the raising edges, then the walk stamps

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
	seedMark  marks // the seeds, then the ready heap's queued set
	ready     []int32

	// runWithOrder; errs are run's two failure slots
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
	uasOrder   []int32
	uasKeys    []uint64
	uasTime    []int
	uasCluster []int
	uasAssign  partition.Assignment
	uasPlaced  []bool
	uasComm    []bool
	uasLoad    []int
	uasMark    marks
	uasNear    []int // a node's placed neighbours, per cluster: four rows of K
}

// NewScratch returns an empty arena; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool lends arenas to the entry points that take none (Prove,
// Adopt, Verify: once per foreign or accepted schedule, not per II
// attempt). Its hot slot keeps a lone caller's arena: behind a plain
// sync.Pool a caller that moved to another P found the per-P slot empty
// and grew a new arena, some 50 objects, at moments no input decides.
var scratchPool arena.Pool[Scratch]

// grown and zeroed are the package-local shorthands for the shared arena
// primitives.
func grown[T any](buf []T, n int) []T  { return arena.Grown(buf, n) }
func zeroed[T any](buf []T, n int) []T { return arena.Zeroed(buf, n) }

type marks = arena.Marks
