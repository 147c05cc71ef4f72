// Package replic implements the paper's contribution: selective instruction
// replication that removes inter-cluster communications from a partitioned
// modulo-scheduled loop (§3). For each communicated value it computes the
// replication subgraph (the minimal ancestor set that must be copied into
// the consuming clusters, Fig. 4), the original instructions that die once
// the communication disappears (Fig. 5), and a resource-pressure weight
// (§3.3); subgraphs are replicated greedily, cheapest first, until the bus
// is no longer oversubscribed, recomputing candidates after every step
// (§3.4). It also provides the schedule-length extension of §5.1 and the
// macro-node alternative of §5.2 as an ablation.
package replic

import (
	"slices"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/mii"
	"clusched/internal/sched"
)

// Candidate is one communicated value together with everything needed to
// decide whether to remove it by replication.
type Candidate struct {
	// Com is the node whose value is communicated.
	Com int
	// Targets are the clusters the subgraph must be replicated into:
	// consumer clusters lacking an instance of Com.
	Targets sched.ClusterSet
	// Subgraph is the minimal set of nodes to replicate (Fig. 4), Com
	// included. AddTo[i] lists the clusters node Subgraph[i] is actually
	// missing from (already-present replicas are not duplicated).
	Subgraph []int
	AddTo    []sched.ClusterSet
	// Removable lists original instructions in Com's home cluster that die
	// if the communication is removed (Fig. 5).
	Removable []int
	// Weight is the §3.3 resource-pressure estimate; lower is better.
	Weight float64
}

// subgraphOf computes the replication subgraph of com (Fig. 4): the upward
// closure over data parents, cutting at nodes whose own value is already
// communicated (available everywhere via the broadcast bus) and at nodes
// already replicated in every target cluster. The returned slices are
// appended to the arena's flat candidate backing.
func subgraphOf(p *sched.Placement, com int, targets sched.ClusterSet, sc *Scratch) ([]int, []sched.ClusterSet) {
	g := p.G
	sc.mark.Reset(g.NumNodes())
	sc.mark.Set(int32(com))
	start := len(sc.subFlat)
	sc.subFlat = append(sc.subFlat, com)
	candidates := sc.stack[:0]
	candidates = g.DataPreds(com, candidates)
	for len(candidates) > 0 {
		v := candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		if sc.mark.Has(int32(v)) || p.NeedsComm(v) {
			continue
		}
		if targets.Minus(p.Replicas[v]).Empty() {
			// Already replicated everywhere it is needed; its inputs are
			// wired up wherever it lives.
			continue
		}
		sc.mark.Set(int32(v))
		sc.subFlat = append(sc.subFlat, v)
		candidates = g.DataPreds(v, candidates)
	}
	sc.stack = candidates[:0]
	subgraph := sc.subFlat[start:]
	slices.Sort(subgraph)
	addStart := len(sc.addFlat)
	for _, v := range subgraph {
		sc.addFlat = append(sc.addFlat, targets.Minus(p.Replicas[v]))
	}
	return subgraph, sc.addFlat[addStart:]
}

// removableOf computes the instructions that can be removed from com's home
// cluster once the communication of com is replaced by replication (Fig. 5):
// com itself if it has no surviving local consumer, then transitively its
// same-cluster parents whose local consumers all died. Nodes that still
// communicate their own value cannot be removed (they feed the bus; they
// belong to a different replication subgraph). The returned slice is
// appended to the arena's flat backing.
func removableOf(p *sched.Placement, com int, sc *Scratch) []int {
	g := p.G
	home := p.Home[com]
	sc.mark.Reset(g.NumNodes())
	start := len(sc.remFlat)
	candidates := sc.stack[:0]
	candidates = append(candidates, com)
	succs, preds := sc.succs, sc.preds
	for len(candidates) > 0 {
		v := candidates[len(candidates)-1]
		candidates = candidates[:len(candidates)-1]
		if sc.mark.Has(int32(v)) {
			continue
		}
		if v != com && p.NeedsComm(v) {
			continue // still the bus source for its own value
		}
		blocked := false
		succs = g.DataSuccs(v, succs[:0])
		for _, w := range succs {
			if w == v {
				continue
			}
			if p.Replicas[w].Has(home) && !sc.mark.Has(int32(w)) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		sc.mark.Set(int32(v))
		sc.remFlat = append(sc.remFlat, v)
		preds = g.DataPreds(v, preds[:0])
		for _, u := range preds {
			if u != v && p.Home[u] == home && p.Replicas[u].Has(home) {
				candidates = append(candidates, u)
			}
		}
	}
	sc.stack = candidates[:0]
	sc.succs, sc.preds = succs, preds
	out := sc.remFlat[start:]
	slices.Sort(out)
	return out
}

// weigh computes the §3.3 weight of a candidate: for every instance the
// replication adds, (usage + extra_ops)/(available·II), divided by the
// number of candidate subgraphs that benefit from that same copy; minus
// 1/(available·II) for every instruction the replication kills. usage/extra
// are resolved per functional-unit class. counts are the placement's
// per-cluster class counts, shared by every candidate of one round.
func weigh(p *sched.Placement, m machine.Config, ii int, cand *Candidate, all []*Candidate, counts [][ddg.NumClasses]int) float64 {
	// extraOps[class][cluster] for this subgraph.
	var extraOps [ddg.NumClasses][32]int
	for i, v := range cand.Subgraph {
		cl := p.G.Nodes[v].Op.Class()
		for rs := cand.AddTo[i]; rs != 0; rs = rs.DropLowest() {
			extraOps[cl][rs.Lowest()]++
		}
	}
	w := 0.0
	for i, v := range cand.Subgraph {
		cl := p.G.Nodes[v].Op.Class()
		for rs := cand.AddTo[i]; rs != 0; rs = rs.DropLowest() {
			c := rs.Lowest()
			avail := float64(m.FUAt(c, cl) * ii)
			if avail == 0 {
				return 1e18
			}
			term := (float64(counts[c][cl]) + float64(extraOps[cl][c])) / avail
			share := 0
			for _, other := range all {
				if other.sharesCopy(v, c) {
					share++
				}
			}
			if share < 1 {
				share = 1
			}
			w += term / float64(share)
		}
	}
	home := p.Home[cand.Com]
	for _, r := range cand.Removable {
		cl := p.G.Nodes[r].Op.Class()
		if avail := float64(m.FUAt(home, cl) * ii); avail > 0 {
			w -= 1 / avail
		}
	}
	return w
}

// sharesCopy reports whether this candidate also wants a copy of node v in
// cluster c.
func (c *Candidate) sharesCopy(v, cluster int) bool {
	for i, u := range c.Subgraph {
		if u == v {
			return c.AddTo[i].Has(cluster)
		}
	}
	return false
}

// candidates computes the full candidate set for the current placement —
// one per communicated value, with subgraphs, removable sets and weights —
// into the arena: the candidate records and their node lists are valid
// until the arena's next round.
func candidates(p *sched.Placement, m machine.Config, ii int, sc *Scratch) []*Candidate {
	comms := sc.commBuf[:0]
	for v := range p.G.Nodes {
		if p.NeedsComm(v) {
			comms = append(comms, v)
		}
	}
	sc.commBuf = comms

	// Size the candidate array up front: pointers into it are taken below,
	// so it must not reallocate while being filled.
	cands := grown(sc.cands, len(comms))
	sc.cands = cands
	sc.subFlat = sc.subFlat[:0]
	sc.addFlat = sc.addFlat[:0]
	sc.remFlat = sc.remFlat[:0]
	ptrs := grown(sc.candPtrs, len(comms))
	sc.candPtrs = ptrs
	for i, com := range comms {
		targets := p.CommTargets(com)
		sub, addTo := subgraphOf(p, com, targets, sc)
		cands[i] = Candidate{
			Com:       com,
			Targets:   targets,
			Subgraph:  sub,
			AddTo:     addTo,
			Removable: removableOf(p, com, sc),
		}
		ptrs[i] = &cands[i]
	}
	counts := p.ClassCountsInto(grown(sc.counts, p.K))
	sc.counts = counts
	for _, c := range ptrs {
		c.Weight = weigh(p, m, ii, c, ptrs, counts)
	}
	return ptrs
}

// feasible reports whether replicating the candidate keeps every target
// cluster's per-class resource II within ii (the no-over-replication guard:
// replication must never be the reason the II grows, §3).
func feasible(p *sched.Placement, m machine.Config, ii int, cand *Candidate, sc *Scratch) bool {
	counts := p.ClassCountsInto(grown(sc.counts, p.K))
	sc.counts = counts
	for i, v := range cand.Subgraph {
		cl := p.G.Nodes[v].Op.Class()
		for rs := cand.AddTo[i]; rs != 0; rs = rs.DropLowest() {
			counts[rs.Lowest()][cl]++
		}
	}
	home := p.Home[cand.Com]
	for _, r := range cand.Removable {
		counts[home][p.G.Nodes[r].Op.Class()]--
	}
	for c := range counts {
		if mii.ClusterResIIAt(counts[c], m, c) > ii {
			return false
		}
	}
	return true
}

// apply performs the replication: adds the missing replicas and removes the
// dead originals from the home cluster.
func apply(p *sched.Placement, cand *Candidate) {
	for i, v := range cand.Subgraph {
		p.Replicas[v] = p.Replicas[v].Union(cand.AddTo[i])
	}
	home := p.Home[cand.Com]
	for _, r := range cand.Removable {
		if p.Replicas[r].Count() > 1 {
			p.Replicas[r] = p.Replicas[r].Remove(home)
		}
	}
}

// Stats summarizes what a replication run did.
type Stats struct {
	// CommsBefore and CommsAfter count communicated values around the run.
	CommsBefore, CommsAfter int
	// Replicated counts instances added, by class; Removed counts original
	// instructions deleted.
	Replicated [ddg.NumClasses]int
	Removed    int
	// Steps is the number of subgraph replications performed.
	Steps int
}

// RunScratch is the main replication heuristic (§3.3): while the partition
// implies more communications than the buses can carry at the given II
// (extra_coms > 0), replicate the cheapest feasible subgraph and recompute.
// It returns the statistics and whether the bus overload was fully
// resolved; the placement is mutated in place. When it returns false the
// caller must increase the II (and should discard the placement). The
// pipeline reuses one scratch arena across the II attempts of a
// compilation. The heuristic breaks ties by node id, so a placement of a
// loop that is not presented (ddg.Graph's Presented) is replicated on its
// loop's canonical presentation and the instances carried back: any
// numbering of a placement is replicated alike.
func RunScratch(p *sched.Placement, m machine.Config, ii int, sc *Scratch) (Stats, bool) {
	if p.G.Presented() {
		return run(p, m, ii, sc)
	}
	cp := p.Present(&sc.present, &sc.presented)
	st, ok := run(cp, m, ii, sc)
	for v, pv := range sc.present.Perm {
		p.Replicas[v] = cp.Replicas[pv]
	}
	return st, ok
}

// run is RunScratch on p's loop as it is numbered.
func run(p *sched.Placement, m machine.Config, ii int, sc *Scratch) (Stats, bool) {
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
		// The comparator is total (Com breaks weight ties uniquely), so the
		// sorted order is the same one sort.SliceStable produced here
		// historically.
		slices.SortFunc(cands, func(a, b *Candidate) int {
			if a.Weight != b.Weight {
				if a.Weight < b.Weight {
					return -1
				}
				return 1
			}
			return a.Com - b.Com
		})
		applied := false
		for _, cand := range cands {
			if !feasible(p, m, ii, cand, sc) {
				continue
			}
			for i := range cand.Subgraph {
				st.Replicated[p.G.Nodes[cand.Subgraph[i]].Op.Class()] += cand.AddTo[i].Count()
			}
			st.Removed += len(cand.Removable)
			apply(p, cand)
			st.Steps++
			applied = true
			break
		}
		if !applied {
			st.CommsAfter = p.Comms()
			return st, false
		}
	}
}
