package partition

import (
	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// refine improves the assignment in place by greedy single-node moves
// (§2.3.1 step 2). A move is accepted when it strictly improves the score
// (inducedII, communications, weighted cut) lexicographically. Several
// passes run until a pass makes no move or the pass budget runs out.
//
// Candidate moves are scored read-only (prepare, eval); the state is
// written only by the move that commits an accepted candidate.
func refine(g *ddg.Graph, m machine.Config, ii int, a *Assignment, w []int, sc *Scratch) {
	const maxPasses = 8
	st := newRefineState(g, m, a, w, ii, sc)
	// The state lives in a pooled Scratch: do not pin the job's graph,
	// assignment and weights in an idle arena (the buffers stay, in sc).
	defer func() { *st = refineState{} }()
	cur := st.score()
	lastMoved := -1 // node of the most recent accepted move
	for pass := 0; pass < maxPasses; pass++ {
		moved := false
		for v := range g.Nodes {
			if v == lastMoved {
				// Back at v with no move since its own, in the previous
				// pass (a move in this pass would have left lastMoved
				// behind v): v sits on its best cluster and every later
				// node was already scored against exactly this state and
				// stayed, so the rest of this pass would move nothing.
				return
			}
			home := a.Cluster[v]
			st.prepare(v)
			bestC, best := home, cur
			for c := 0; c < a.K; c++ {
				if c == home {
					continue
				}
				if s := st.eval(c); s.less(best) {
					best, bestC = s, c
				}
			}
			if bestC != home {
				st.move(v, bestC)
				cur = best
				moved, lastMoved = true, v
			}
		}
		if !moved {
			return
		}
	}
}

// score orders candidate partitions: first by how far any cluster's
// resource requirement overflows the current II target (an overfull cluster
// can never be scheduled at this II, no matter what the bus does), then by
// the II the partition induces (resources and bus), then by communication
// count, then by the weighted cut (a proxy for critical-path damage).
type score struct {
	resOverflow int
	inducedII   int
	coms        int
	wcut        int
}

func (s score) less(o score) bool {
	if s.resOverflow != o.resOverflow {
		return s.resOverflow < o.resOverflow
	}
	if s.inducedII != o.inducedII {
		return s.inducedII < o.inducedII
	}
	if s.coms != o.coms {
		return s.coms < o.coms
	}
	return s.wcut < o.wcut
}

// refineState maintains the score incrementally under node moves: the
// per-cluster class counts, resource IIs and total capacity overflow, the
// communication set and the weighted cut are all updated in O(degree·K) per
// committed move. Candidates are not moved: prepare(v) reads what leaving
// its cluster would change, once per node, and eval(c) finishes the score
// for one destination in O(1). All buffers live in the Scratch arena.
type refineState struct {
	g *ddg.Graph
	m machine.Config
	a *Assignment
	w []int

	targetII int
	counts   []([ddg.NumClasses]int) // per cluster
	fu       []int                   // cached m.FUAt, [c*NumClasses + class]
	classII  []int                   // ceil(count/fu) per [c*NumClasses + class] (1<<20 when unservable)
	resII    []int                   // per-cluster resource II (mii.ClusterResIIAt)
	over     int                     // total per-class capacity overflow at targetII
	// consIn[v*K+c] counts data edges from v to consumers in cluster c.
	consIn []int32
	// comm[v] is 1 when v needs a communication.
	comm    []int8
	numComs int
	wcut    int

	cand candidate
	// predMult[p] counts the data edges p→v while prepare(v) groups v's
	// predecessors; all zero between calls.
	predMult []int32
}

// candidate is what prepare(v) learns about taking v out of its cluster:
// everything eval needs that does not depend on the destination, plus the
// two per-destination vectors.
type candidate struct {
	home, class int
	// over and resHome are the capacity overflow and home's resource II
	// once v has left home.
	over, resHome int
	// resRest is the largest resource II among the clusters other than
	// home; a destination's own can only grow, so it need not be left out.
	resRest int
	// dcoms[c] is the change in the communication count if v moves to c.
	dcoms []int
	// wt[c] is the weight of v's data edges to and from other nodes in
	// cluster c: moving from home to c changes the cut by wt[home]-wt[c].
	wt []int
}

func newRefineState(g *ddg.Graph, m machine.Config, a *Assignment, w []int, targetII int, sc *Scratch) *refineState {
	n := g.NumNodes()
	st := &sc.st
	*st = refineState{
		g: g, m: m, a: a, w: w,
		targetII: targetII,
		counts:   zeroed(sc.counts, a.K),
		fu:       grown(sc.fu, a.K*ddg.NumClasses),
		classII:  grown(sc.classII, a.K*ddg.NumClasses),
		resII:    grown(sc.resII, a.K),
		consIn:   zeroed(sc.consIn, n*a.K),
		comm:     grown(sc.comm, n),
		predMult: zeroed(sc.predMult, n),
		cand:     candidate{dcoms: grown(sc.dcoms, a.K), wt: grown(sc.wt, a.K)},
	}
	sc.counts, sc.fu, sc.classII, sc.resII, sc.consIn, sc.comm =
		st.counts, st.fu, st.classII, st.resII, st.consIn, st.comm
	sc.predMult, sc.dcoms, sc.wt = st.predMult, st.cand.dcoms, st.cand.wt
	for c := 0; c < a.K; c++ {
		for cl := 0; cl < ddg.NumClasses; cl++ {
			st.fu[c*ddg.NumClasses+cl] = m.FUAt(c, ddg.Class(cl))
		}
	}
	for v := range g.Nodes {
		st.counts[a.Cluster[v]][g.Nodes[v].Op.Class()]++
	}
	for c := 0; c < a.K; c++ {
		for cl, n := range st.counts[c] {
			st.classII[c*ddg.NumClasses+cl] = classCeil(n, st.fu[c*ddg.NumClasses+cl])
			if ex := n - st.fu[c*ddg.NumClasses+cl]*st.targetII; ex > 0 {
				st.over += ex
			}
		}
		st.resII[c] = st.clusterResII(c)
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		if e.Kind != ddg.EdgeData {
			continue
		}
		st.consIn[e.Src*a.K+a.Cluster[e.Dst]]++
		if a.Cluster[e.Src] != a.Cluster[e.Dst] {
			st.wcut += w[i]
		}
	}
	for v := range g.Nodes {
		st.comm[v] = st.commBit(v)
		st.numComs += int(st.comm[v])
	}
	return st
}

// classCeil is one class's contribution to a cluster's resource II:
// ceil(n/fu), or a huge sentinel when the class is unservable there. The
// floor of 1 is applied by clusterResII, matching mii.ClusterResIIAt.
func classCeil(n, fu int) int {
	if fu == 0 {
		if n > 0 {
			return 1 << 20
		}
		return 0
	}
	return (n + fu - 1) / fu
}

// clusterResII folds the cached per-class ceilings of one cluster: the same
// value as mii.ClusterResIIAt, without recomputing any division.
func (st *refineState) clusterResII(c int) int {
	res := 1
	for _, b := range st.classII[c*ddg.NumClasses : (c+1)*ddg.NumClasses] {
		if b > res {
			res = b
		}
	}
	return res
}

// bump adjusts counts[c][cl] by d, maintaining the overflow total and the
// cluster's resource II.
func (st *refineState) bump(c, cl, d int) {
	idx := c*ddg.NumClasses + cl
	fu := st.fu[idx]
	limit := fu * st.targetII
	n0 := st.counts[c][cl]
	n1 := n0 + d
	st.counts[c][cl] = n1
	if n0 > limit {
		st.over -= n0 - limit
	}
	if n1 > limit {
		st.over += n1 - limit
	}
	st.classII[idx] = classCeil(n1, fu)
	st.resII[c] = st.clusterResII(c)
}

func (st *refineState) commBit(v int) int8 {
	if st.g.Nodes[v].Op.IsStore() {
		return 0
	}
	home := st.a.Cluster[v]
	row := st.consIn[v*st.a.K : (v+1)*st.a.K]
	for c, n := range row {
		if c != home && n > 0 {
			return 1
		}
	}
	return 0
}

// prepare gathers, without writing any shared state, what moving v out of
// its cluster would change; eval then scores each destination.
func (st *refineState) prepare(v int) {
	g, k := st.g, st.a.K
	cluster := st.a.Cluster
	cd := &st.cand
	home := cluster[v]
	class := int(g.Nodes[v].Op.Class())
	cd.home, cd.class = home, class

	// Resources: home loses one op of v's class.
	idx := home*ddg.NumClasses + class
	n0 := st.counts[home][class]
	cd.over = st.over
	if n0 > st.fu[idx]*st.targetII {
		cd.over--
	}
	cd.resHome = max(1, classCeil(n0-1, st.fu[idx]))
	for cl := 0; cl < ddg.NumClasses; cl++ {
		if cl != class {
			cd.resHome = max(cd.resHome, st.classII[home*ddg.NumClasses+cl])
		}
	}
	cd.resRest = 1
	for c, r := range st.resII {
		if c != home {
			cd.resRest = max(cd.resRest, r)
		}
	}

	dcoms, wt := cd.dcoms, cd.wt
	clear(dcoms)
	clear(wt)

	// v's own value: its consumers stay where they are, except v itself
	// (self-loops travel with it).
	self := int32(0)
	for _, eid := range g.Out(v) {
		e := &g.Edges[eid]
		if e.Kind != ddg.EdgeData {
			continue
		}
		if e.Dst == v {
			self++
			continue
		}
		wt[cluster[e.Dst]] += st.w[eid]
	}
	if !g.Nodes[v].Op.IsStore() {
		row := st.consIn[v*k : (v+1)*k]
		// Clusters holding a consumer of v other than v.
		held := 0
		for c, n := range row {
			if c == home {
				n -= self
			}
			if n > 0 {
				held++
			}
		}
		for c, n := range row {
			// In c, v communicates iff a cluster other than c holds one.
			if c != home {
				dcoms[c] += b2i(held > 1 || (held == 1 && n == 0)) - int(st.comm[v])
			}
		}
	}

	// Each distinct data predecessor p sees its mult edges to v leave home
	// and arrive in c.
	for _, eid := range g.In(v) {
		e := &g.Edges[eid]
		if e.Kind != ddg.EdgeData || e.Src == v {
			continue
		}
		wt[cluster[e.Src]] += st.w[eid]
		st.predMult[e.Src]++
	}
	for _, eid := range g.In(v) {
		e := &g.Edges[eid]
		if e.Kind != ddg.EdgeData || e.Src == v {
			continue
		}
		p := e.Src
		mult := st.predMult[p]
		if mult == 0 {
			continue // a parallel edge of a predecessor already counted
		}
		st.predMult[p] = 0
		if g.Nodes[p].Op.IsStore() {
			continue
		}
		pc := cluster[p]
		row := st.consIn[p*k : (p+1)*k]
		// Foreign clusters still holding a consumer of p once v has left.
		held := 0
		for c, n := range row {
			if c != pc && n > 0 {
				held++
			}
		}
		if home != pc && row[home] == mult {
			held--
		}
		for c, n := range row {
			// v's arrival makes c hold one, which counts unless c is p's own.
			if c != home {
				dcoms[c] += b2i(held > 0 || (c != pc && n == 0)) - int(st.comm[p])
			}
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// eval returns the score the state would have after moving the prepared
// node to cluster c (c != home): exactly what move(v, c) followed by score()
// yields, with nothing written.
func (st *refineState) eval(c int) score {
	cd := &st.cand
	idx := c*ddg.NumClasses + cd.class
	n1 := st.counts[c][cd.class] + 1
	over := cd.over
	if n1 > st.fu[idx]*st.targetII {
		over++
	}
	// Adding an op can only raise its own class's ceiling in c.
	res := max(cd.resHome, cd.resRest, classCeil(n1, st.fu[idx]))
	coms := st.numComs + cd.dcoms[c]
	return score{
		resOverflow: over,
		inducedII:   max(res, st.m.MinBusII(coms)),
		coms:        coms,
		wcut:        st.wcut + cd.wt[cd.home] - cd.wt[c],
	}
}

// move relocates v to cluster c, updating all incremental state. refine
// calls it only to commit an accepted candidate.
func (st *refineState) move(v, c int) {
	old := st.a.Cluster[v]
	if old == c {
		return
	}
	k := st.a.K
	cl := int(st.g.Nodes[v].Op.Class())
	st.bump(old, cl, -1)
	st.bump(c, cl, +1)
	st.a.Cluster[v] = c

	// Cut and producer-comm updates for edges incident to v.
	for _, eid := range st.g.Out(v) {
		e := &st.g.Edges[eid]
		if e.Kind != ddg.EdgeData {
			continue
		}
		wasCross := old != st.a.Cluster[e.Dst]
		isCross := c != st.a.Cluster[e.Dst]
		if e.Src == e.Dst {
			wasCross, isCross = false, false
		}
		if wasCross != isCross {
			if isCross {
				st.wcut += st.w[eid]
			} else {
				st.wcut -= st.w[eid]
			}
		}
	}
	for _, eid := range st.g.In(v) {
		e := &st.g.Edges[eid]
		if e.Kind != ddg.EdgeData || e.Src == v {
			continue
		}
		p := e.Src
		pc := st.a.Cluster[p]
		st.consIn[p*k+old]--
		st.consIn[p*k+c]++
		wasCross := pc != old
		isCross := pc != c
		if wasCross != isCross {
			if isCross {
				st.wcut += st.w[eid]
			} else {
				st.wcut -= st.w[eid]
			}
		}
		st.updateComm(p)
	}
	// Self-loops: consIn[v] counts v's own consumers including itself.
	for _, eid := range st.g.Out(v) {
		e := &st.g.Edges[eid]
		if e.Kind == ddg.EdgeData && e.Dst == v {
			st.consIn[v*k+old]--
			st.consIn[v*k+c]++
		}
	}
	st.updateComm(v)
}

func (st *refineState) updateComm(v int) {
	nb := st.commBit(v)
	st.numComs += int(nb) - int(st.comm[v])
	st.comm[v] = nb
}

func (st *refineState) score() score {
	res := 1
	for c := 0; c < st.a.K; c++ {
		if st.resII[c] > res {
			res = st.resII[c]
		}
	}
	induced := res
	if b := st.m.MinBusII(st.numComs); b > induced {
		induced = b
	}
	return score{resOverflow: st.over, inducedII: induced, coms: st.numComs, wcut: st.wcut}
}
