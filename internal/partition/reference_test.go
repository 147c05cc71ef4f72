package partition

// The partitioner's oracles: refine's pass loop, coarsen (with mergeMacros
// and forceMerge) and assignMacros as they stood before the read-only
// evaluator, the contracted macro graph and the connectivity vector replaced
// them, kept verbatim so the differential tests can hold the new code to
// bit-identical partitions.
// refineReference still drives the production refineState (move and score
// are unchanged and remain the commit path); coarsenReference takes the
// edge-aggregation map it used to keep in the Scratch as a parameter.
// sortPairsReference is the combine-then-order step of coarsen's level loop
// as it stood before the packed sort keys: combinePairs and the comparator
// sort that followed it.

import (
	"slices"
	"sort"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// refineReference is refine as it stood before read-only evaluation: it
// improves the assignment in place by greedy single-node moves
// (§2.3.1 step 2). A move is accepted when it strictly improves the score
// (inducedII, communications, weighted cut) lexicographically. Several
// passes run until a pass makes no move or the pass budget runs out.
func refineReference(g *ddg.Graph, m machine.Config, ii int, a *Assignment, w []int, sc *Scratch) {
	const maxPasses = 8
	st := newRefineState(g, m, a, w, ii, sc)
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for v := range g.Nodes {
			cur := a.Cluster[v]
			before := st.score()
			bestC, bestScore := cur, before
			for c := 0; c < a.K; c++ {
				if c == cur {
					continue
				}
				st.move(v, c)
				if s := st.score(); s.less(bestScore) {
					bestScore, bestC = s, c
				}
				st.move(v, cur)
			}
			if bestC != cur {
				st.move(v, bestC)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
}

// coarsenReference is coarsen as it stood before the contracted macro
// graph: it groups nodes into as few macro-nodes as matching allows,
// targeting m.Clusters macro-nodes, by repeated maximum-weight matching
// over the macro graph, re-aggregated from all edges at every level. Merges
// that would overflow a single cluster's capacity at the given ii are
// rejected, so a macro always fits in one cluster.
func coarsenReference(g *ddg.Graph, m machine.Config, ii int, w []int, sc *Scratch, agg map[[2]int]int) *macroSet {
	// Coarsening cap: a macro must fit in at least one cluster, so use the
	// largest per-class capacity across clusters at this ii.
	var cap [ddg.NumClasses]int
	for cl := range cap {
		for c := 0; c < m.Clusters; c++ {
			if x := m.FUAt(c, ddg.Class(cl)) * ii; x > cap[cl] {
				cap[cl] = x
			}
		}
	}

	n := g.NumNodes()
	// Working macro ids are original node ids; dead macros have size 0.
	macroOf := grown(sc.macroOf, n)
	sc.macroOf = macroOf
	counts := zeroed(sc.mcounts, n)
	sc.mcounts = counts
	size := grown(sc.msize, n)
	sc.msize = size
	for v := range g.Nodes {
		macroOf[v] = v
		counts[v][g.Nodes[v].Op.Class()]++
		size[v] = 1
	}
	alive := n

	for alive > m.Clusters {
		// Accumulate inter-macro edge weights.
		clear(agg)
		for i := range g.Edges {
			e := &g.Edges[i]
			ma, mb := macroOf[e.Src], macroOf[e.Dst]
			if ma == mb {
				continue
			}
			if ma > mb {
				ma, mb = mb, ma
			}
			agg[[2]int{ma, mb}] += w[i]
		}
		pairs := sc.pairs[:0]
		for k, ww := range agg {
			pairs = append(pairs, macroPair{a: k[0], b: k[1], w: ww})
		}
		sc.pairs = pairs
		// Deterministic order: weight desc, then IDs.
		slices.SortFunc(pairs, func(x, y macroPair) int {
			if x.w != y.w {
				return y.w - x.w
			}
			if x.a != y.a {
				return x.a - y.a
			}
			return x.b - y.b
		})
		matched := zeroed(sc.matched, n)
		sc.matched = matched
		merges := 0
		for _, p := range pairs {
			if alive-merges <= m.Clusters {
				break
			}
			if matched[p.a] || matched[p.b] {
				continue
			}
			if !fitsTogether(&counts[p.a], &counts[p.b], cap) {
				continue
			}
			mergeMacrosReference(macroOf, counts, size, p.a, p.b)
			matched[p.a], matched[p.b] = true, true
			merges++
		}
		if merges == 0 {
			// Matching stuck (disconnected graph or capacity limits): merge
			// smallest compatible pairs regardless of connectivity, else stop.
			if !forceMergeReference(macroOf, counts, size, cap, sc) {
				break
			}
			alive--
			continue
		}
		alive -= merges
	}

	// Compact: renumber live macros in increasing representative order. The
	// counts/size/macroOf arrays are rewritten in place (the write index
	// never passes the read index).
	ms := &sc.ms
	ms.n = 0
	ms.macroOf = macroOf
	compact := grown(sc.compact, n)
	sc.compact = compact
	for i := 0; i < n; i++ {
		if size[i] > 0 {
			compact[i] = ms.n
			counts[ms.n] = counts[i]
			size[ms.n] = size[i]
			ms.n++
		}
	}
	ms.counts = counts[:ms.n]
	ms.size = size[:ms.n]
	for v := 0; v < n; v++ {
		ms.macroOf[v] = compact[macroOf[v]]
	}
	// Bucket members by macro (counting sort keeps them ascending).
	ms.memOff = zeroed(sc.memOff, ms.n+1)
	sc.memOff = ms.memOff
	ms.memFlat = grown(sc.memFlat, n)
	sc.memFlat = ms.memFlat
	for v := 0; v < n; v++ {
		ms.memOff[ms.macroOf[v]+1]++
	}
	for i := 0; i < ms.n; i++ {
		ms.memOff[i+1] += ms.memOff[i]
	}
	for v := 0; v < n; v++ {
		mi := ms.macroOf[v]
		ms.memFlat[ms.memOff[mi]] = v
		ms.memOff[mi]++
	}
	copy(ms.memOff[1:ms.n+1], ms.memOff[:ms.n])
	ms.memOff[0] = 0
	return ms
}

// mergeMacrosReference folds macro b into macro a; b becomes dead (size 0). Every
// node is repointed by scanning macroOf — node counts are small, so the
// scan is cheaper than maintaining per-macro member lists.
func mergeMacrosReference(macroOf []int, counts [][ddg.NumClasses]int, size []int, a, b int) {
	for v := range macroOf {
		if macroOf[v] == b {
			macroOf[v] = a
		}
	}
	for cl := range counts[a] {
		counts[a][cl] += counts[b][cl]
	}
	size[a] += size[b]
	size[b] = 0
	counts[b] = [ddg.NumClasses]int{}
}

// forceMergeReference merges the two smallest capacity-compatible macros; returns
// false when no pair fits (coarsening must stop).
func forceMergeReference(macroOf []int, counts [][ddg.NumClasses]int, size []int, cap [ddg.NumClasses]int, sc *Scratch) bool {
	live := sc.live[:0]
	for i := range size {
		if size[i] > 0 {
			live = append(live, i)
		}
	}
	sc.live = live
	// sort.Slice (not slices.SortFunc) deliberately: size ties must keep
	// the exact order the original implementation produced, so partitions
	// stay bit-identical.
	sort.Slice(live, func(i, j int) bool { return size[live[i]] < size[live[j]] })
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if fitsTogether(&counts[live[i]], &counts[live[j]], cap) {
				mergeMacrosReference(macroOf, counts, size, live[i], live[j])
				return true
			}
		}
	}
	return false
}

// assignMacrosReference is assignMacros as it stood before the per-macro
// connectivity vector, re-walking the members' edges for every cluster. It
// places macro-nodes onto clusters: largest first, each to a
// cluster with spare capacity at the given ii, preferring connectivity to
// already-placed neighbors and per-class balance.
func assignMacrosReference(g *ddg.Graph, m machine.Config, ii int, ms *macroSet, w []int, sc *Scratch) *Assignment {
	capacity := grown(sc.capacity, m.Clusters)
	sc.capacity = capacity
	for c := 0; c < m.Clusters; c++ {
		for cl := range capacity[c] {
			capacity[c][cl] = m.FUAt(c, ddg.Class(cl)) * ii
		}
	}
	a := &Assignment{Cluster: make([]int, g.NumNodes()), K: m.Clusters}
	order := grown(sc.order, ms.n)
	sc.order = order
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(x, y int) int {
		if ms.size[x] != ms.size[y] {
			return ms.size[y] - ms.size[x]
		}
		return x - y
	})

	clusterOf := grown(sc.clusterOf, ms.n)
	sc.clusterOf = clusterOf
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	loads := zeroed(sc.loads, m.Clusters)
	sc.loads = loads

	for _, mi := range order {
		bestC := 0
		bestKey := [3]int{1 << 30, 1 << 30, 1 << 30}
		for c := 0; c < m.Clusters; c++ {
			// Capacity overflow this placement would cause (op units).
			overflow := 0
			load := 0
			for cl := range loads[c] {
				after := loads[c][cl] + ms.counts[mi][cl]
				if ex := after - capacity[c][cl]; ex > 0 {
					overflow += ex
				}
				if fu := m.FUAt(c, ddg.Class(cl)); fu > 0 {
					inII := (after + fu - 1) / fu
					if inII > load {
						load = inII
					}
				}
			}
			// Connectivity to macros already in c.
			conn := 0
			for _, v := range ms.members(mi) {
				for _, eid := range g.Out(v) {
					e := &g.Edges[eid]
					if other := ms.macroOf[e.Dst]; other != mi && clusterOf[other] == c {
						conn += w[eid]
					}
				}
				for _, eid := range g.In(v) {
					e := &g.Edges[eid]
					if other := ms.macroOf[e.Src]; other != mi && clusterOf[other] == c {
						conn += w[eid]
					}
				}
			}
			// Fit first (never overflow a cluster when an alternative
			// exists), then connectivity, then balance; deterministic.
			key := [3]int{overflow, -conn, load*m.Clusters + c}
			if key[0] < bestKey[0] ||
				(key[0] == bestKey[0] && (key[1] < bestKey[1] ||
					(key[1] == bestKey[1] && key[2] < bestKey[2]))) {
				bestKey, bestC = key, c
			}
		}
		clusterOf[mi] = bestC
		for cl := range loads[bestC] {
			loads[bestC][cl] += ms.counts[mi][cl]
		}
		for _, v := range ms.members(mi) {
			a.Cluster[v] = bestC
		}
	}
	return a
}

// initialReference is InitialScratch over the oracles.
func initialReference(g *ddg.Graph, m machine.Config, ii int, sc *Scratch, agg map[[2]int]int) *Assignment {
	w := edgeWeights(g, m, ii, sc)
	ms := coarsenReference(g, m, ii, w, sc, agg)
	a := assignMacrosReference(g, m, ii, ms, w, sc)
	refineReference(g, m, ii, a, w, sc)
	return a
}

// combinePairsReference sorts the pair list by endpoints and adds up
// parallel pairs in place, leaving one pair per connected macro pair.
func combinePairsReference(pairs []macroPair) []macroPair {
	slices.SortFunc(pairs, func(x, y macroPair) int {
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	out := pairs[:0]
	for _, p := range pairs {
		if k := len(out) - 1; k >= 0 && out[k].a == p.a && out[k].b == p.b {
			out[k].w += p.w
		} else {
			out = append(out, p)
		}
	}
	return out
}

// sortPairsReference is the head of coarsen's level loop as it stood.
func sortPairsReference(pairs []macroPair) []macroPair {
	pairs = combinePairsReference(pairs)
	// Deterministic order: weight desc, then IDs.
	slices.SortFunc(pairs, func(x, y macroPair) int {
		if x.w != y.w {
			return y.w - x.w
		}
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	return pairs
}
