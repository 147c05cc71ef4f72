package replic

import (
	"sort"

	"clusched/internal/machine"
	"clusched/internal/sched"
)

// RunMacro is the §5.2 alternative, kept as an ablation: instead of
// replicating one communication at a time and recomputing, it replicates
// "macro" batches — the cheapest candidate together with every other
// candidate whose subgraph overlaps it — in one shot. The paper found this
// replicates too many unnecessary instructions; the ablation benchmark
// reproduces that conclusion by comparing added-instruction counts against
// RunScratch. Like RunScratch it works in the pass's arena sc.
func RunMacro(p *sched.Placement, m machine.Config, ii int, sc *Scratch) (Stats, bool) {
	var st Stats
	st.CommsBefore = p.Comms()
	st.CommsAfter = st.CommsBefore
	if !m.Clustered() {
		return st, true
	}
	for {
		coms := p.Comms()
		st.CommsAfter = coms
		extra := coms - m.BusComs(ii)
		if extra <= 0 {
			return st, true
		}
		cands := candidates(p, m, ii, sc)
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].Weight != cands[j].Weight {
				return cands[i].Weight < cands[j].Weight
			}
			return cands[i].Com < cands[j].Com
		})
		// Build the macro batch around the cheapest feasible candidate.
		var batch []*Candidate
		for _, seed := range cands {
			if !feasible(p, m, ii, seed, sc) {
				continue
			}
			batch = append(batch, seed)
			seedNodes := make(map[int]bool, len(seed.Subgraph))
			for _, v := range seed.Subgraph {
				seedNodes[v] = true
			}
			for _, other := range cands {
				if other == seed {
					continue
				}
				overlaps := false
				for _, v := range other.Subgraph {
					if seedNodes[v] {
						overlaps = true
						break
					}
				}
				if overlaps && feasible(p, m, ii, other, sc) {
					batch = append(batch, other)
				}
			}
			break
		}
		if len(batch) == 0 {
			st.CommsAfter = p.Comms()
			return st, false
		}
		// Apply the whole batch without recomputing between members; the
		// stale AddTo sets are exactly the over-replication the paper
		// observed. Feasibility was only checked per member, so guard each
		// application.
		for _, cand := range batch {
			if p.CommTargets(cand.Com).Empty() {
				continue // already satisfied by an earlier batch member
			}
			if !feasible(p, m, ii, cand, sc) {
				continue
			}
			for i := range cand.Subgraph {
				added := cand.AddTo[i].Minus(p.Replicas[cand.Subgraph[i]])
				st.Replicated[p.G.Nodes[cand.Subgraph[i]].Op.Class()] += added.Count()
			}
			st.Removed += len(cand.Removable)
			apply(p, cand)
			st.Steps++
		}
	}
}
