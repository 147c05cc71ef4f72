// Package pipeline decomposes the paper's Fig. 2 compilation driver into
// explicit, composable passes. A compilation is a sequence of II attempts:
// starting at II = MII, the driver runs a pass chain — partition the loop's
// DDG onto the clusters, optionally remove excess communications by
// instruction replication (§3), modulo-schedule the result, verify — over a
// shared per-II Context. When a pass fails the attempt it records the cause
// (bus, recurrences, or registers — the buckets of Fig. 1) and the driver
// retries at II+1, refining the previous partition.
//
// The II search itself — one loop — is search.go; this file holds the
// types it drives and the two convenience doors in front of Search.
// internal/driver builds the concurrent batch-compilation engine on top.
package pipeline

import (
	"context"
	"fmt"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/partition"
	"clusched/internal/replic"
	"clusched/internal/sched"
)

// Cause classifies why the II had to be increased past the MII.
type Cause int

const (
	// CauseBus: the partition implies more communications than the buses
	// can carry (or a copy could not be placed).
	CauseBus Cause = iota
	// CauseRecurrence: the scheduler could not honor a dependence window.
	CauseRecurrence
	// CauseRegisters: a cluster's register pressure exceeded its file.
	CauseRegisters
	// NumCauses is the number of cause buckets.
	NumCauses
)

// String names the cause as in the paper's Fig. 1 legend.
func (c Cause) String() string {
	switch c {
	case CauseBus:
		return "Bus"
	case CauseRecurrence:
		return "Recurrences"
	case CauseRegisters:
		return "Registers"
	}
	return fmt.Sprintf("Cause(%d)", int(c))
}

// Options selects the pipeline variant.
type Options struct {
	// Strategy names the registered scheduling strategy to compile with;
	// the empty string selects DefaultStrategy ("paper"). The strategy owns
	// the pass chain: flags below that its chain does not implement are
	// rejected by its Validate. See strategy.go.
	Strategy string
	// Replicate enables the §3 replication pass (the paper's contribution).
	Replicate bool
	// LengthReplicate additionally runs the §5.1 schedule-length extension
	// after the II settles.
	LengthReplicate bool
	// ZeroBusLatency schedules with zero-latency buses that still consume
	// bus bandwidth: the Fig. 12 upper bound.
	ZeroBusLatency bool
	// UseMacroReplication swaps in the §5.2 macro-node heuristic (ablation).
	UseMacroReplication bool
	// MaxII overrides the search bound (0 = automatic).
	MaxII int
	// IgnoreRegisterPressure disables the register-file feasibility check
	// (used by the unrolling ablation, whose bodies legitimately exceed the
	// file — a real compiler would spill).
	IgnoreRegisterPressure bool
	// VerifySchedules re-checks every accepted schedule against the
	// dependence and resource constraints (cheap; used by tests).
	VerifySchedules bool
}

// Result is the outcome of compiling one loop for one machine.
type Result struct {
	// Loop and Machine identify the compilation.
	Loop    *ddg.Graph
	Machine machine.Config
	// MII is the lower bound max(ResMII, RecMII); II the achieved interval.
	MII, II int
	// Length is the schedule length of one iteration; SC the stage count.
	Length, SC int
	// CommsBeforeReplication counts the communications the final partition
	// implied; Comms counts those remaining in the final schedule.
	CommsBeforeReplication, Comms int
	// Replicated counts replica instances added per class; Removed counts
	// original instructions deleted as dead.
	Replicated [ddg.NumClasses]int
	Removed    int
	// ReplicationSteps is the number of subgraphs replicated.
	ReplicationSteps int
	// IIIncreases tallies II bumps by cause.
	IIIncreases [NumCauses]int
	// Schedule is the final verified schedule.
	Schedule *sched.Schedule
	// Placement is the final placement (homes + replicas).
	Placement *sched.Placement
}

// Speedup returns the ratio of the other result's cycle count to this one's
// for N iterations: >1 means this result is faster.
func (r *Result) Speedup(other *Result, iterations float64) float64 {
	return other.Schedule.CyclesFor(iterations) / r.Schedule.CyclesFor(iterations)
}

// Arena aggregates the reusable scratch allocators of the packages the
// pass chain drives. The II search carries one Arena across every attempt
// of a compilation — the reservation table, instance graph, ordering and
// liveness buffers are resized in place instead of reallocated per II —
// and the driver's workers reuse one Arena across all their jobs. One rule
// covers everything an attempt builds in it (assignment, placement,
// instance graph, a failed schedule's error): valid until the arena's next
// attempt, copied out exactly once, on acceptance (sched's accept) — so a
// compilation on a warm arena allocates its Result and that schedule. An
// Arena is not safe for concurrent use.
type Arena struct {
	// Sched is the modulo scheduler's arena; Part the partitioner's; Repl
	// the replication pass's; MII the bound computation's.
	Sched *sched.Scratch
	Part  *partition.Scratch
	Repl  *replic.Scratch
	MII   *mii.Scratch

	// present is the loop's canonical presentation, the graph the search
	// runs on; front is the search's frontier Context. Both let go of the
	// job when the search returns (park), so an idle arena pins no graph,
	// assignment or schedule.
	present ddg.Presentation
	front   Context
	// fixed is the assignment of a chain that computes one per search and
	// never partitions (moddist); order is its traversal's memory, and
	// capable its clusters per class of unit.
	fixed   partition.Assignment
	order   ddg.OrderScratch
	capable [ddg.NumClasses][]int
}

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return new(Arena).filled() }

// filled returns the arena with every nil member allocated (a nil arena is
// a fresh one). The search normalises each arena once, on entry, so the
// passes read the members directly.
func (a *Arena) filled() *Arena {
	if a == nil {
		a = new(Arena)
	}
	if a.Sched == nil {
		a.Sched = sched.NewScratch()
	}
	if a.Part == nil {
		a.Part = partition.NewScratch()
	}
	if a.Repl == nil {
		a.Repl = replic.NewScratch()
	}
	if a.MII == nil {
		a.MII = mii.NewScratch()
	}
	return a
}

var idleLoop ddg.Graph

// park lets go of the last search's loop, keeping the buffers (see Placement).
func (a *Arena) park() {
	a.present.Release()
	a.front = Context{}
	a.Sched.Placement(&idleLoop, &partition.Assignment{})
}

// Context is the compilation state shared by the passes of one II attempt.
// The driver resets the per-attempt fields before each attempt; Assign
// persists across attempts so the partitioner can refine its previous
// answer instead of starting over.
type Context struct {
	// Graph, Machine and Opts identify the compilation; they are fixed for
	// the whole II search.
	Graph   *ddg.Graph
	Machine machine.Config
	Opts    Options

	// MII is the lower bound; II is the interval of the current attempt.
	MII, II int

	// Assign is the cluster assignment, carried across II attempts; each
	// attempt's partitioning call leaves it valid through the next one.
	Assign *partition.Assignment
	// Placement wraps Assign with copy and replica bookkeeping for the
	// current attempt, in the arena; the placement that outlives an
	// accepted attempt is Schedule.IG.P.
	Placement *sched.Placement
	// CommsBeforeReplication counts the communications the partition
	// implied before any replication ran.
	CommsBeforeReplication int
	// ReplStats accumulates replication statistics for the current attempt.
	ReplStats replic.Stats
	// Schedule is set by the scheduling pass on success.
	Schedule *sched.Schedule

	// NextII is set by a pass that fails the attempt and can prove that
	// every interval below NextII fails exactly as this one did: same
	// cause, same state carried into the next attempt. The search tallies
	// those intervals under this attempt's cause and resumes at NextII
	// (skip-ahead). Zero, or anything up to II+1, is the plain II+1.
	NextII int
	// FixedPlacement is set by a pass whose placement is the same at every
	// interval of the search (moddist's): a schedule refused below that
	// placement's recurrence bound is then refused at every interval up to
	// it, and SchedulePass names the bound as NextII. A pass that changes
	// the placement after it must clear it.
	FixedPlacement bool

	// arena holds the scratch allocators shared by all attempts of this
	// compilation (and, under the driver, by all jobs of a worker); the
	// search fills every member before the first pass runs.
	arena *Arena

	failCause Cause
	failed    bool
}

// Fail abandons the current II attempt with the given cause. The driver
// tallies the cause in Result.IIIncreases, skips the remaining passes and
// retries the chain at II+1 (or at NextII).
func (c *Context) Fail(cause Cause) { c.failed, c.failCause = true, cause }

// Failed reports whether the current attempt has been abandoned, and why.
func (c *Context) Failed() (Cause, bool) { return c.failCause, c.failed }

// reset clears the per-attempt state for a new II attempt.
func (c *Context) reset(ii int) {
	c.II = ii
	c.Placement = nil
	c.CommsBeforeReplication = 0
	c.ReplStats = replic.Stats{}
	c.Schedule = nil
	c.NextII = 0
	c.FixedPlacement = false
	c.failed = false
}

// Pass is one stage of the per-II pipeline. Run either advances the
// context, calls ctx.Fail to abandon the attempt, or returns a hard error
// that aborts the whole compilation (reserved for internal invariant
// violations, not for ordinary "try a larger II" failures).
type Pass interface {
	// Name identifies the pass in diagnostics.
	Name() string
	// Run executes the pass over the shared context.
	Run(ctx *Context) error
}

// Compile compiles one loop under the strategy opts.Strategy selects (the
// paper's Fig. 2 driver by default), searching upward from II = MII. It is
// Search with a background context and the zero SearchConfig.
func Compile(g *ddg.Graph, m machine.Config, opts Options) (*Result, error) {
	return Search(context.Background(), g, m, opts, SearchConfig{})
}

// CompileContextArena is Compile with cancellation over a caller-owned
// scratch arena (see Arena): Search with only SearchConfig.Arena set.
func CompileContextArena(ctx context.Context, g *ddg.Graph, m machine.Config, opts Options, arena *Arena) (*Result, error) {
	return Search(ctx, g, m, opts, SearchConfig{Arena: arena})
}

// MaxII returns the automatic II search bound for a loop on a machine: a
// cap on the climb that covers every communication, the longest latency
// chain and the whole resource footprint, not a proof that the loop fits
// below it — a loop whose register pressure no placement spreads fails at
// every interval. The search stops short of the cap only on a proof that
// the intervals left fail, a moddist jump past it: to its bus count's
// interval (Machine.MinBusII) or its placement's recurrence bound
// (math.MaxInt for a cycle of distance 0).
func MaxII(g *ddg.Graph, m machine.Config, lower int) int {
	return lower + m.MinBusII(g.NumNodes()) + 16*g.NumNodes() + 256
}
