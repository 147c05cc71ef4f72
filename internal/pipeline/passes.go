package pipeline

import (
	"fmt"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/partition"
	"clusched/internal/replic"
	"clusched/internal/sched"
)

// paperChain is the standard Fig. 2 pass chain: partition → replicate →
// length-replicate → schedule → verify. Passes whose options are disabled
// reduce to no-ops, so the chain has the same shape for every pipeline
// variant.
var paperChain = []Pass{
	PartitionPass{},
	ReplicationPass{},
	LengthReplicationPass{},
	SchedulePass{},
	VerifyPass{},
}

// PartitionPass assigns every node to a cluster: an initial multilevel
// partition on the first attempt, a refinement of the previous assignment
// afterwards. It publishes the placement and the implied communication
// count to the context.
type PartitionPass struct{}

// Name implements Pass.
func (PartitionPass) Name() string { return "partition" }

// Run implements Pass.
func (PartitionPass) Run(ctx *Context) error {
	partitionStep(ctx)
	ctx.Placement = ctx.arena.Sched.Placement(ctx.Graph, ctx.Assign)
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	return nil
}

// partitionStep is PartitionPass's assignment step: an initial partition
// on the first attempt, a refinement of the carried assignment afterwards.
func partitionStep(ctx *Context) {
	sc := ctx.arena.Part
	if ctx.Assign == nil {
		ctx.Assign = partition.InitialScratch(ctx.Graph, ctx.Machine, ctx.II, sc)
	} else {
		ctx.Assign = partition.RefineScratch(ctx.Graph, ctx.Machine, ctx.II, ctx.Assign, sc)
	}
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
		ctx.Fail(CauseBus)
		return nil
	}
	var stats replic.Stats
	var ok bool
	if ctx.Opts.UseMacroReplication {
		stats, ok = replic.RunMacro(ctx.Placement, m, ctx.II, ctx.arena.Repl)
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
		replic.LengthReplicate(ctx.Placement, ctx.Machine, ctx.II, 8, ctx.arena.Repl, ctx.arena.Sched)
	}
	return nil
}

// UASAssignPass derives the cluster assignment by the greedy unified
// assign-and-schedule sweep (sched.UASAssignScratch) — the Özer et al.
// family: no partition pass runs before it, and no replication pass
// follows it. A sweep that cannot place some node — no cluster has both a
// free reservation slot in the node's window and bus-budget headroom —
// fails the attempt with CauseBus.
type UASAssignPass struct{}

// Name implements Pass.
func (UASAssignPass) Name() string { return "uas-assign" }

// Run implements Pass.
func (UASAssignPass) Run(ctx *Context) error {
	a, ok := sched.UASAssignScratch(ctx.Graph, ctx.Machine, ctx.II, ctx.arena.Sched)
	if !ok {
		ctx.Fail(CauseBus)
		return nil
	}
	ctx.Assign = a
	ctx.Placement = ctx.arena.Sched.Placement(ctx.Graph, a)
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	if m := ctx.Machine; m.Clustered() && ctx.CommsBeforeReplication > m.BusComs(ctx.II) {
		ctx.Fail(CauseBus)
	}
	return nil
}

// ModDistPass assigns clusters by modulo distribution: the nodes, in
// topological order, are dealt round-robin onto the clusters — the i-th
// node onto capable[i % len(capable)], where capable lists the clusters
// with a unit of the node's class (every cluster of a homogeneous machine,
// so there the i-th node goes to cluster i % k). The
// assignment ignores the dependence structure entirely, so it is the
// cheapest possible pre-partitioning — and the natural lower bound for how
// much an assignment algorithm matters. It does not depend on the II;
// attempts fail with CauseBus until the interval's bus budget covers the
// (fixed) communication count C. The assignment, and so C, is the same at
// every interval of the search, so a failed bus precheck fails again at
// every II below MinBusII(C): the pass names that interval as NextII. So
// is the placement, which the pass marks FixedPlacement: a schedule
// refused below its recurrence bound jumps there too (SchedulePass).
type ModDistPass struct{}

// Name implements Pass.
func (ModDistPass) Name() string { return "moddist" }

// Run implements Pass.
func (ModDistPass) Run(ctx *Context) error {
	m := ctx.Machine
	if ctx.Assign == nil {
		ar, n, k := ctx.arena, ctx.Graph.NumNodes(), m.Clusters
		ar.fixed = partition.Assignment{Cluster: arena.Zeroed(ar.fixed.Cluster, n), K: k}
		// capable[cl] lists the clusters with a unit of class cl; a class
		// no cluster has is dealt onto every cluster, and fails to place.
		for cl := range ar.capable {
			none := m.TotalFU(ddg.Class(cl)) == 0
			ar.capable[cl] = ar.capable[cl][:0]
			for c := range k {
				if none || m.FUAt(c, ddg.Class(cl)) > 0 {
					ar.capable[cl] = append(ar.capable[cl], c)
				}
			}
		}
		order, _ := ctx.Graph.TopoOrder(&ar.order)
		for i, v := range order {
			capable := ar.capable[ctx.Graph.Nodes[v].Op.Class()]
			ar.fixed.Cluster[v] = capable[i%len(capable)]
		}
		ctx.Assign = &ar.fixed
	}
	ctx.Placement = ctx.arena.Sched.Placement(ctx.Graph, ctx.Assign)
	ctx.FixedPlacement = true
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	if m.Clustered() && ctx.CommsBeforeReplication > m.BusComs(ctx.II) {
		ctx.NextII = m.MinBusII(ctx.CommsBeforeReplication)
		ctx.Fail(CauseBus)
	}
	return nil
}

// SchedulePass modulo-schedules the placed loop at the current II. On
// failure the attempt fails with the Fig. 1 cause bucket of the scheduler
// error. A refusal below the placement's recurrence bound fails every
// interval up to the bound while the placement stays put: on a
// FixedPlacement the pass names the bound as NextII.
type SchedulePass struct{}

// Name implements Pass.
func (SchedulePass) Name() string { return "schedule" }

// Run implements Pass.
func (SchedulePass) Run(ctx *Context) error {
	s, err := sched.ScheduleLoopScratch(ctx.Placement, ctx.Machine, ctx.II, ctx.Opts.ZeroBusLatency,
		sched.Options{SkipRegisterCheck: ctx.Opts.IgnoreRegisterPressure}, ctx.arena.Sched)
	if err != nil {
		if e, ok := err.(*sched.Error); ok && ctx.FixedPlacement {
			ctx.NextII = e.Bound
		}
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
// failures, an interval below the placement's recurrence bound among them,
// are recurrence-driven; register failures are their own bucket;
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
