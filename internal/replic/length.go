package replic

import (
	"clusched/internal/machine"
	"clusched/internal/sched"
)

// LengthReplicate is the §5.1 extension: once the II is settled, try to
// shorten the schedule length of a single iteration by replicating the
// producers of critical cross-cluster edges into the specific cluster where
// the latency hurts. Unlike RunScratch, the communication itself may survive
// (partial replication, Fig. 11); only the critical consumer is redirected
// to a local copy. Returns the number of replications applied. The
// placement is mutated in place. The instance graphs and their timing are
// built in ssc, the pass's scheduler arena, which the schedule pass then
// rebuilds for the final placement.
func LengthReplicate(p *sched.Placement, m machine.Config, ii, maxSteps int, sc *Scratch, ssc *sched.Scratch) int {
	if !m.Clustered() {
		return 0
	}
	steps := 0
	for ; steps < maxSteps; steps++ {
		if !lengthStep(p, m, ii, sc, ssc) {
			break
		}
	}
	return steps
}

// lengthStep finds one profitable critical-edge replication; returns false
// when none exists.
func lengthStep(p *sched.Placement, m machine.Config, ii int, sc *Scratch, ssc *sched.Scratch) bool {
	ig, tm, err := ssc.InstanceTiming(p, m, ii)
	if err != nil {
		return false
	}
	length := tm.Length

	// Candidate edges: copy → consumer with zero slack (on the critical
	// path of the iteration schedule).
	type option struct {
		com, cluster int
	}
	var opts []option
	for i := range ig.Edges {
		e := &ig.Edges[i]
		src := ig.Inst[e.Src]
		if !src.IsCopy || e.Dist != 0 {
			continue
		}
		if tm.ALAP[e.Dst]-tm.ASAP[e.Src]-int(e.Lat) > 0 {
			continue // slack absorbs the bus latency
		}
		opts = append(opts, option{com: int(src.Orig), cluster: int(ig.Inst[e.Dst].Cluster)})
	}

	// Each trial below rebuilds the arena's graph and timing: from here on
	// only opts and length are read.
	for _, o := range opts {
		target := sched.ClusterSet(0).Add(o.cluster)
		if target.Minus(p.Replicas[o.com]).Empty() {
			continue
		}
		sc.subFlat, sc.addFlat = sc.subFlat[:0], sc.addFlat[:0]
		sub, addTo := subgraphOf(p, o.com, target, sc)
		cand := &Candidate{Com: o.com, Targets: target, Subgraph: sub, AddTo: addTo}
		if !feasible(p, m, ii, cand, sc) {
			continue
		}
		trial := p.Clone()
		for i, v := range cand.Subgraph {
			trial.Replicas[v] = trial.Replicas[v].Union(cand.AddTo[i])
		}
		if _, ttm, err := ssc.InstanceTiming(trial, m, ii); err == nil && ttm.Length < length {
			// Commit: note the communication is NOT removed (partial
			// replication), so no originals are deleted.
			for i, v := range cand.Subgraph {
				p.Replicas[v] = p.Replicas[v].Union(cand.AddTo[i])
			}
			return true
		}
	}
	return false
}
