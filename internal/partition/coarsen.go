package partition

import (
	"cmp"
	"slices"
	"sort"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// edgeWeights computes a weight per edge reflecting the execution-time
// impact of paying a bus latency on it (§2.3.1 step 1, after [1]): edges
// whose slack cannot absorb the bus latency are critical and get high
// weight; loop-carried and memory edges get low weight (memory edges never
// cost a communication at all).
func edgeWeights(g *ddg.Graph, m machine.Config, ii int, sc *Scratch) []int {
	w := grown(sc.w, g.NumEdges())
	sc.w = w
	tm := g.ComputeTimingScratch(ii, &sc.timing)
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind == ddg.EdgeMem {
			w[i] = 0
			continue
		}
		slack := tm.Slack(g, e, ii)
		impact := m.BusLatency - slack
		if impact < 0 {
			impact = 0
		}
		// Base weight 1 keeps connected nodes attractive to merge even off
		// the critical path (fewer communications); the impact term
		// dominates for critical edges.
		w[i] = 1 + 4*impact
	}
	return w
}

// macroSet is the result of coarsening: nodes grouped into macro-nodes,
// stored without per-macro slices so the whole set lives in the arena.
// Macro ids are compact, assigned in increasing order of the original
// representative node.
type macroSet struct {
	n int // number of macros
	// macroOf[v] is v's macro id.
	macroOf []int
	// counts[m] are the per-class operation counts of macro m; size[m] its
	// node count.
	counts [][ddg.NumClasses]int
	size   []int
	// Members of macro m are memFlat[memOff[m]:memOff[m+1]], ascending.
	memFlat, memOff []int
}

// macroPair is an edge of the macro graph, a candidate merge during
// coarsening: macros a < b joined by total edge weight w.
type macroPair struct {
	a, b, w int
}

// coarsen groups nodes into as few macro-nodes as matching allows, down to
// m.Clusters of them, by repeated maximum-weight matching over the macro
// graph. Merges that would overflow a single cluster's capacity at the
// given ii are rejected, so a macro always fits in one cluster.
//
// The macro graph is a pair list built from the edges once and contracted
// after every level: endpoints are relabelled through rep (the macro each
// one was folded into), pairs that became internal are dropped and parallel
// ones combined, so each level works on a shorter list.
func coarsen(g *ddg.Graph, m machine.Config, ii int, w []int, sc *Scratch) *macroSet {
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
	// rep[x] is the macro that x was folded into at the current level, x
	// itself for a live macro; entries of macros that died at earlier levels
	// are stale and never read, since nothing refers to a dead macro.
	rep := grown(sc.rep, n)
	sc.rep = rep
	for v := range g.Nodes {
		macroOf[v] = v
		rep[v] = v
		counts[v][g.Nodes[v].Op.Class()]++
		size[v] = 1
	}
	alive := n

	pairs, packable := edgePairs(g, w, sc)
	for alive > m.Clusters {
		pairs = sortPairs(pairs, packable, sc)
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
			foldMacro(rep, counts, size, p.a, p.b)
			matched[p.a], matched[p.b] = true, true
			merges++
		}
		if merges == 0 {
			// Matching stuck (disconnected graph or capacity limits): merge
			// smallest compatible pairs regardless of connectivity, else stop.
			if !forceMerge(rep, counts, size, cap, sc) {
				break
			}
			merges = 1
		}
		alive -= merges
		// Contract: a macro is folded at most once per level, so one step
		// through rep reaches the survivor.
		for v := range macroOf {
			macroOf[v] = rep[macroOf[v]]
		}
		kept := pairs[:0]
		for _, p := range pairs {
			if a, b := rep[p.a], rep[p.b]; a != b {
				kept = append(kept, macroPair{a: min(a, b), b: max(a, b), w: p.w})
			}
		}
		pairs = kept
	}
	sc.pairs = pairs[:0]

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

// members returns the node list of macro mi.
func (ms *macroSet) members(mi int) []int { return ms.memFlat[ms.memOff[mi]:ms.memOff[mi+1]] }

func fitsTogether(a, b *[ddg.NumClasses]int, cap [ddg.NumClasses]int) bool {
	for cl := range cap {
		if a[cl]+b[cl] > cap[cl] {
			return false
		}
	}
	return true
}

// A pair packs into one uint64 when ids take keyIDBits and weights keyWBits.
const (
	keyIDBits = 20
	keyWBits  = 64 - 2*keyIDBits
)

// edgePairs starts the macro graph: one pair per edge between two nodes,
// memory edges too, at weight zero. packable says whether every level's
// pairs fit sortPairs' keys — read off the input once, since contraction
// only drops pairs or adds their weights up.
func edgePairs(g *ddg.Graph, w []int, sc *Scratch) (pairs []macroPair, packable bool) {
	pairs = sc.pairs[:0]
	packable, sum := g.NumNodes() < 1<<keyIDBits, 0
	for i := range g.Edges {
		if e := &g.Edges[i]; e.Src != e.Dst {
			pairs = append(pairs, macroPair{a: min(e.Src, e.Dst), b: max(e.Src, e.Dst), w: w[i]})
			if w[i] < 0 || w[i] >= 1<<keyWBits {
				packable = false
			}
			sum += w[i] // cannot overflow while packable
		}
	}
	return pairs, packable && sum < 1<<keyWBits
}

// sortPairs adds up parallel pairs in place, leaving one per connected
// macro pair, and puts the list in matching order: weight descending, then
// ids. Both steps sort by a total order on what they compare — (a, b, w) to
// bring parallel pairs together, (w, a, b) over distinct (a, b) — so any
// correct sort yields the same list, and packable pairs (ids below
// 2^keyIDBits, weights non-negative and summing below 2^keyWBits) sort as
// plain integers, a‖b‖w and then (wmax−w)‖a‖b. The weights come from the
// machine's bus latency, which a job may set to anything: the comparator
// path stays for the rest.
func sortPairs(pairs []macroPair, packable bool, sc *Scratch) []macroPair {
	if !packable {
		slices.SortFunc(pairs, func(x, y macroPair) int { return cmp.Or(x.a-y.a, x.b-y.b) })
		out := pairs[:0]
		for _, p := range pairs {
			if k := len(out) - 1; k >= 0 && out[k].a == p.a && out[k].b == p.b {
				out[k].w += p.w
			} else {
				out = append(out, p)
			}
		}
		slices.SortFunc(out, func(x, y macroPair) int { return cmp.Or(y.w-x.w, x.a-y.a, x.b-y.b) })
		return out
	}
	const idMask, wMask = 1<<keyIDBits - 1, 1<<keyWBits - 1
	keys := grown(sc.keys, len(pairs))
	sc.keys = keys
	for i, p := range pairs {
		keys[i] = uint64(p.a)<<(keyIDBits+keyWBits) | uint64(p.b)<<keyWBits | uint64(p.w)
	}
	slices.Sort(keys)
	out, wmax := keys[:0], uint64(0)
	for _, k := range keys {
		if j := len(out) - 1; j >= 0 && out[j]>>keyWBits == k>>keyWBits {
			out[j] += k & wMask
		} else {
			out = append(out, k)
		}
		wmax = max(wmax, out[len(out)-1]&wMask)
	}
	for i, k := range out {
		out[i] = (wmax-k&wMask)<<(2*keyIDBits) | k>>keyWBits
	}
	slices.Sort(out)
	pairs = pairs[:len(out)]
	for i, k := range out {
		pairs[i] = macroPair{a: int(k >> keyIDBits & idMask), b: int(k & idMask), w: int(wmax - k>>(2*keyIDBits))}
	}
	return pairs
}

// foldMacro folds macro b into macro a; b becomes dead (size 0) and rep
// records where it went. Nodes and pairs are repointed by coarsen's
// contraction step, once per level.
func foldMacro(rep []int, counts [][ddg.NumClasses]int, size []int, a, b int) {
	rep[b] = a
	for cl := range counts[a] {
		counts[a][cl] += counts[b][cl]
	}
	size[a] += size[b]
	size[b] = 0
	counts[b] = [ddg.NumClasses]int{}
}

// macrosBySize orders macro ids by ascending size for forceMerge.
type macrosBySize struct{ ids, size []int }

func (s *macrosBySize) Len() int           { return len(s.ids) }
func (s *macrosBySize) Less(i, j int) bool { return s.size[s.ids[i]] < s.size[s.ids[j]] }
func (s *macrosBySize) Swap(i, j int)      { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }

// forceMerge merges the two smallest capacity-compatible macros; returns
// false when no pair fits (coarsening must stop). The survivor is the
// earlier of the two in size order, not the smaller id.
func forceMerge(rep []int, counts [][ddg.NumClasses]int, size []int, cap [ddg.NumClasses]int, sc *Scratch) bool {
	live := sc.live[:0]
	for i := range size {
		if size[i] > 0 {
			live = append(live, i)
		}
	}
	sc.live = live
	// sort.Sort (not slices.SortFunc) deliberately: size ties must keep
	// the exact order the original sort.Slice produced, so partitions stay
	// bit-identical. Both run the same generated pdqsort over Less and
	// Swap; the sorter lives in the Scratch because sort.Slice's closure,
	// reflect swapper and boxed slice header were three allocations a call.
	sc.bySize = macrosBySize{ids: live, size: size}
	sort.Sort(&sc.bySize)
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if fitsTogether(&counts[live[i]], &counts[live[j]], cap) {
				foldMacro(rep, counts, size, live[i], live[j])
				return true
			}
		}
	}
	return false
}

// assignMacros places macro-nodes onto clusters: largest first, each to a
// cluster with spare capacity at the given ii, preferring connectivity to
// already-placed neighbors and per-class balance.
func assignMacros(g *ddg.Graph, m machine.Config, ii int, ms *macroSet, w []int, sc *Scratch) *Assignment {
	capacity := grown(sc.capacity, m.Clusters)
	sc.capacity = capacity
	for c := 0; c < m.Clusters; c++ {
		for cl := range capacity[c] {
			capacity[c][cl] = m.FUAt(c, ddg.Class(cl)) * ii
		}
	}
	a := sc.assignment(g.NumNodes(), m.Clusters) // every node is a member of one macro
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

	conn := grown(sc.conn, m.Clusters)
	sc.conn = conn
	for _, mi := range order {
		// conn[c]: connectivity to the macros already placed in c.
		clear(conn)
		for _, v := range ms.members(mi) {
			for _, eid := range g.Out(v) {
				if other := ms.macroOf[g.Edges[eid].Dst]; other != mi && clusterOf[other] >= 0 {
					conn[clusterOf[other]] += w[eid]
				}
			}
			for _, eid := range g.In(v) {
				if other := ms.macroOf[g.Edges[eid].Src]; other != mi && clusterOf[other] >= 0 {
					conn[clusterOf[other]] += w[eid]
				}
			}
		}
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
			// Fit first (never overflow a cluster when an alternative
			// exists), then connectivity, then balance; deterministic.
			key := [3]int{overflow, -conn[c], load*m.Clusters + c}
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
