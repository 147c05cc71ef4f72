package pipeline

// The rival cluster-assignment strategies the paper's §6 positions itself
// against, as registry entries: uas (greedy unified assign-and-schedule —
// the Özer et al. family: no partitioning phase, each node picks its
// cluster during placement by FU and bus availability) and moddist (modulo
// distribution of the scheduling order onto the clusters — the
// cheap-and-cheerful pre-partitioning baseline). Both chains end in the
// standard SchedulePass/VerifyPass, so every strategy's output is a
// verified modulo schedule with explicit, scheduled copy operations; what
// differs is how the assignment is produced — which is exactly the axis
// the paper's comparison turns on.

import (
	"fmt"

	"clusched/internal/arena"
	"clusched/internal/machine"
	"clusched/internal/partition"
	"clusched/internal/sched"
)

func init() {
	RegisterStrategy(uasStrategy{})
	RegisterStrategy(moddistStrategy{})
}

// rejectPaperChainOptions fails options that only the paper chain
// implements: a strategy without a replication pass must not silently
// accept (and cache-key on) replication flags.
func rejectPaperChainOptions(strategy string, opts Options) error {
	switch {
	case opts.Replicate:
		return fmt.Errorf("pipeline: strategy %q has no replication pass (Options.Replicate)", strategy)
	case opts.LengthReplicate:
		return fmt.Errorf("pipeline: strategy %q has no replication pass (Options.LengthReplicate)", strategy)
	case opts.UseMacroReplication:
		return fmt.Errorf("pipeline: strategy %q has no replication pass (Options.UseMacroReplication)", strategy)
	}
	return nil
}

// UASAssignPass derives the cluster assignment by the greedy unified
// assign-and-schedule sweep (sched.UASAssignScratch): no partition pass ran
// before it, and no replication pass follows it. A sweep that cannot place
// some node — no cluster has both a free reservation slot in the node's
// window and bus-budget headroom — fails the attempt with CauseBus.
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

// uasStrategy is the greedy unified-assign-and-schedule rival.
type uasStrategy struct{}

// Name implements Strategy.
func (uasStrategy) Name() string { return "uas" }

// Chain implements Strategy: assign-while-scheduling, then the real
// scheduler over the derived placement (inserting the explicit copies),
// then verification.
func (uasStrategy) Chain() []Pass { return uasChain }

var uasChain = []Pass{UASAssignPass{}, SchedulePass{}, VerifyPass{}}

// Validate implements Strategy.
func (uasStrategy) Validate(opts Options, m machine.Config) error {
	return rejectPaperChainOptions("uas", opts)
}

// ReplayFailedAttempt implements attemptReplayer as a no-op: the UAS sweep
// recomputes the assignment from (graph, machine, II) on every attempt, so
// failed attempts leave no cross-attempt state to replay.
func (uasStrategy) ReplayFailedAttempt(ctx *Context) {}

// Describe implements describer.
func (uasStrategy) Describe() string {
	return "greedy unified assign-and-schedule: each node picks its cluster during placement by FU/bus availability (no partition pass)"
}

// ModDistPass assigns clusters by modulo distribution: the nodes, in
// topological order, are dealt round-robin onto the clusters. The
// assignment ignores the dependence structure entirely, so it is the
// cheapest possible pre-partitioning — and the natural lower bound for how
// much an assignment algorithm matters. It does not depend on the II;
// attempts fail with CauseBus until the interval's bus budget covers the
// (fixed) communication count.
type ModDistPass struct{}

// Name implements Pass.
func (ModDistPass) Name() string { return "moddist" }

// Run implements Pass.
func (ModDistPass) Run(ctx *Context) error {
	m := ctx.Machine
	if ctx.Assign == nil {
		ar, n, k := ctx.arena, ctx.Graph.NumNodes(), m.Clusters
		ar.fixed = partition.Assignment{Cluster: arena.Zeroed(ar.fixed.Cluster, n), K: k}
		order, _ := ctx.Graph.TopoOrder(&ar.order)
		for i, v := range order {
			ar.fixed.Cluster[v] = i % k
		}
		ctx.Assign = &ar.fixed
	}
	ctx.Placement = ctx.arena.Sched.Placement(ctx.Graph, ctx.Assign)
	ctx.CommsBeforeReplication = ctx.Placement.Comms()
	if m.Clustered() && ctx.CommsBeforeReplication > m.BusComs(ctx.II) {
		ctx.fixedBusFail = true
		ctx.Fail(CauseBus)
	}
	return nil
}

// moddistStrategy is the modulo-distribution rival.
type moddistStrategy struct{}

// Name implements Strategy.
func (moddistStrategy) Name() string { return "moddist" }

// Chain implements Strategy.
func (moddistStrategy) Chain() []Pass { return moddistChain }

var moddistChain = []Pass{ModDistPass{}, SchedulePass{}, VerifyPass{}}

// Validate implements Strategy.
func (moddistStrategy) Validate(opts Options, m machine.Config) error {
	return rejectPaperChainOptions("moddist", opts)
}

// ReplayFailedAttempt implements attemptReplayer as a no-op: the modulo
// distribution is II-independent and deterministic, so a lane that starts
// with a nil assignment recomputes exactly the one the sequential search
// carried.
func (moddistStrategy) ReplayFailedAttempt(ctx *Context) {}

// SkipAhead opts moddist into the II skip-ahead (skipahead.go): its
// assignment, hence its communication count, is fixed for the search.
func (moddistStrategy) SkipAhead() bool { return true }

// Describe implements describer.
func (moddistStrategy) Describe() string {
	return "round-robin modulo distribution of the topological order onto clusters (naive pre-partitioning baseline)"
}
