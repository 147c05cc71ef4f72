package pipeline

// Skip-ahead for the II search (Fig. 2 driver): when an attempt fails at
// the bus-capacity precondition — the partition implies more communications
// than the buses carry and replication is off — the next feasible II is not
// II+1 but MinBusII(comms), the smallest interval whose bus bandwidth
// covers the partition's communication count. Jumping there directly
// replaces the O(maxII − MII) chain of doomed partition refinements a
// bus-bound loop otherwise pays with a single arithmetic step.
//
// The jump must not change ANY observable output: the linear search's
// Result — II, Length, SC and the per-cause IIIncreases tallies of Fig. 1 —
// must be reproduced bit-identically (search_parity_test.go proves it on
// the whole suite). Each skipped attempt would have run
//
//	Refine(assign, ii') → count comms → fail CauseBus,
//
// so the jump is exact iff Refine is provably a no-op and the comms count
// provably still exceeds the bus budget at every skipped ii'. Three cheap
// conditions establish that, given the failing attempt's assignment A at
// interval ii:
//
//  1. Fixpoint: the refinement at ii converged — its last pass moved
//     nothing. Refinement is deterministic, so re-running it on A changes
//     nothing unless the move-acceptance predicate itself changes with ii'.
//
//  2. Weight stability (ii ≥ weightStableII): the predicate compares
//     (overflow, inducedII, comms, weighted cut); of these only the edge
//     weights behind the cut and the overflow term depend on the interval.
//     The weights derive from ASAP/ALAP slack, which varies with ii' only
//     while some loop-carried edge still has positive effective latency
//     (lat − dist·ii' > 0) or a loop-carried data edge's slack still sits
//     below the bus latency. Both thresholds are linear in ii', so past
//     weightStableII — the maximum of ceil(lat/dist) over loop-carried
//     edges and of the per-edge slack crossings computed from the clamped
//     (large-II) timing — every weight is constant in ii'.
//
//  3. Overflow headroom: the overflow term compares class counts against
//     fu·ii'. A larger ii' only relaxes it, but a move rejected at ii for
//     overflowing could become acceptable at ii'. If on A no single-node
//     move can overflow at ii — every (cluster, class) has
//     count+1 ≤ fu·ii — then no move overflows at any ii' > ii either, and
//     the predicate is identical at every skipped interval. (This is also
//     why the "FU saturation" bound never helps here: count+1 ≤ fu·ii
//     already pins the per-cluster resource II at or below ii, and with
//     replication on, the replicator's own feasibility guard maintains the
//     same invariant for the placement it produces.)
//
// Under 1–3, every ii' in (ii, MinBusII(C)) sees the same assignment, the
// same comms count C, and C > BusComs(ii') — the exact failure, cause
// tally and state evolution of the linear search, minus the work.
import (
	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// skipTarget returns the smallest II after a failed attempt that the search
// must actually try: II+1 normally, or the proven bus bound when the
// attempt failed the bus-capacity precheck and conditions 1–3 hold.
func (c *Context) skipTarget() int {
	next := c.II + 1
	if !c.BusCheckFailed || !c.PartitionConverged {
		return next
	}
	if c.II < c.weightStableII() {
		return next
	}
	if !c.assignOverflowHeadroom() {
		return next
	}
	if b := c.Machine.MinBusII(c.CommsBeforeReplication); b > next {
		return b
	}
	return next
}

// weightStableII returns (computing it once per compilation) the interval
// from which edgeWeights(g, m, ii') is constant in ii'.
func (c *Context) weightStableII() int {
	if c.wStableII == 0 {
		c.wStableII = weightStableII(c.Graph, c.Machine, &c.arena.timing)
	}
	return c.wStableII
}

// weightStableII computes condition 2's threshold: the II at and beyond
// which the partitioner's slack-based edge weights no longer change.
func weightStableII(g *ddg.Graph, m machine.Config, sc *ddg.TimingScratch) int {
	// Timing at an interval beyond every latency: every loop-carried edge
	// clamps, so ASAP/ALAP equal their large-II fixpoint.
	big := 2
	for i := range g.Edges {
		if l := g.Edges[i].Lat + 1; l > big {
			big = l
		}
	}
	tm := g.ComputeTimingScratch(big, sc)
	stable := 1
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Dist == 0 {
			continue
		}
		// Timing clamp: lat − dist·ii ≤ 0.
		if b := ceilDiv(e.Lat, e.Dist); b > stable {
			stable = b
		}
		if e.Kind != ddg.EdgeData {
			continue
		}
		// Weight clamp: slack(ii) = ALAP[dst] − ASAP[src] − lat + dist·ii
		// reaches the bus latency (weight pinned at 1 from there).
		if num := m.BusLatency + e.Lat + tm.ASAP[e.Src] - tm.ALAP[e.Dst]; num > 0 {
			if b := ceilDiv(num, e.Dist); b > stable {
				stable = b
			}
		}
	}
	return stable
}

// assignOverflowHeadroom checks condition 3 on the current assignment: no
// single-node move can overflow any cluster's class capacity at the current
// II (count+1 ≤ fu·II everywhere, and no class occupies a cluster that
// cannot execute it).
func (c *Context) assignOverflowHeadroom() bool {
	counts := arena.Zeroed(c.arena.counts, c.Assign.K)
	c.arena.counts = counts
	for v, cc := range c.Assign.Cluster {
		counts[cc][c.Graph.Nodes[v].Op.Class()]++
	}
	for cl := 0; cl < ddg.NumClasses; cl++ {
		for cc := range counts {
			fu := c.Machine.FUAt(cc, ddg.Class(cl))
			if fu == 0 {
				if counts[cc][cl] > 0 {
					return false
				}
				continue
			}
			if counts[cc][cl]+1 > fu*c.II {
				return false
			}
		}
	}
	return true
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
