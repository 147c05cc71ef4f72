package pipeline

import (
	"fmt"
	"slices"

	"clusched/internal/partition"
	"clusched/internal/replic"
	"clusched/internal/sched"
)

// paperChain is the standard Fig. 2 pass chain: partition → replicate →
// length-replicate → schedule → verify. Passes whose options are disabled
// reduce to no-ops, so the chain has the same shape for every pipeline
// variant. Like the rivals' chains it is built once and only ever read:
// the passes are stateless, so every compilation drives the same slice.
var paperChain = []Pass{
	PartitionPass{},
	ReplicationPass{},
	LengthReplicationPass{},
	SchedulePass{},
	VerifyPass{},
}

// Chain returns a copy of the standard Fig. 2 pass chain; callers composing
// custom chains can splice their own passes in.
func Chain() []Pass { return slices.Clone(paperChain) }

// PartitionPass assigns every node to a cluster: an initial multilevel
// partition on the first attempt, a refinement of the previous assignment
// afterwards. It publishes the placement and the implied communication
// count to the context.
type PartitionPass struct{}

// Name implements Pass.
func (PartitionPass) Name() string { return "partition" }

// Run implements Pass.
func (PartitionPass) Run(ctx *Context) error {
	sc := ctx.arena.Part
	if ctx.Assign == nil {
		ctx.Assign = partition.InitialScratch(ctx.Graph, ctx.Machine, ctx.II, sc)
	} else {
		ctx.Assign = partition.RefineScratch(ctx.Graph, ctx.Machine, ctx.II, ctx.Assign, sc)
	}
	ctx.PartitionConverged = sc.Converged()
	ctx.Placement = ctx.arena.Sched.Placement(ctx.Graph, ctx.Assign)
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	return nil
}

// ReplicationPass removes excess communications by replicating cheap
// instruction subgraphs into the consuming clusters (§3, or the §5.2
// macro-node variant). When the partition fits the buses it does nothing;
// when it does not and replication is disabled or cannot reduce the count
// enough, the attempt fails with CauseBus.
type ReplicationPass struct{}

// Name implements Pass.
func (ReplicationPass) Name() string { return "replicate" }

// Run implements Pass.
func (ReplicationPass) Run(ctx *Context) error {
	m := ctx.Machine
	if !m.Clustered() || ctx.CommsBeforeReplication <= m.BusComs(ctx.II) {
		return nil
	}
	if !ctx.Opts.Replicate {
		ctx.BusCheckFailed = true
		ctx.Fail(CauseBus)
		return nil
	}
	var stats replic.Stats
	var ok bool
	if ctx.Opts.UseMacroReplication {
		stats, ok = replic.RunMacro(ctx.Placement, m, ctx.II)
	} else {
		stats, ok = replic.RunScratch(ctx.Placement, m, ctx.II, ctx.arena.Repl)
	}
	ctx.ReplStats = stats
	if !ok {
		ctx.Fail(CauseBus)
	}
	return nil
}

// LengthReplicationPass runs the §5.1 schedule-length extension: once the
// bus budget is met, it keeps replicating while doing so can shorten the
// schedule. A no-op unless both Replicate and LengthReplicate are set.
type LengthReplicationPass struct{}

// Name implements Pass.
func (LengthReplicationPass) Name() string { return "length-replicate" }

// Run implements Pass.
func (LengthReplicationPass) Run(ctx *Context) error {
	if ctx.Opts.Replicate && ctx.Opts.LengthReplicate {
		replic.LengthReplicate(ctx.Placement, ctx.Machine, ctx.II, 8)
	}
	return nil
}

// SchedulePass modulo-schedules the placed loop at the current II. On
// failure the attempt fails with the Fig. 1 cause bucket of the scheduler
// error.
type SchedulePass struct{}

// Name implements Pass.
func (SchedulePass) Name() string { return "schedule" }

// Run implements Pass.
func (SchedulePass) Run(ctx *Context) error {
	s, err := sched.ScheduleLoopScratch(ctx.Placement, ctx.Machine, ctx.II, ctx.Opts.ZeroBusLatency,
		sched.Options{SkipRegisterCheck: ctx.Opts.IgnoreRegisterPressure}, ctx.arena.Sched)
	if err != nil {
		ctx.Fail(ClassifyFailure(err))
		return nil
	}
	ctx.Schedule = s
	return nil
}

// VerifyPass re-checks the accepted schedule against the dependence and
// resource constraints when Options.VerifySchedules is set. A verification
// failure is an internal invariant violation and aborts the compilation.
type VerifyPass struct{}

// Name implements Pass.
func (VerifyPass) Name() string { return "verify" }

// Run implements Pass.
func (VerifyPass) Run(ctx *Context) error {
	if !ctx.Opts.VerifySchedules || ctx.Schedule == nil {
		return nil
	}
	if err := sched.Verify(ctx.Schedule); err != nil {
		return fmt.Errorf("pipeline: internal error: accepted schedule fails verification: %w", err)
	}
	return nil
}

// ClassifyFailure maps scheduler failures to Fig. 1 cause buckets: window
// failures are recurrence-driven; register failures are their own bucket;
// every resource failure lands in the bus bucket, whether or not the
// unplaceable instance was a bus copy. Copy failures are literal bus
// pressure; residual contention on ordinary ops traces back to
// communication constraints too (the partition balances resources across
// clusters), which is how the paper's taxonomy folds it for clustered
// machines.
func ClassifyFailure(err error) Cause {
	e, ok := err.(*sched.Error)
	if !ok {
		return CauseRecurrence
	}
	switch e.Kind {
	case sched.FailRegisters:
		return CauseRegisters
	case sched.FailWindow:
		return CauseRecurrence
	case sched.FailResource:
		return CauseBus
	}
	return CauseRecurrence
}
