package sched

import "math"

// belowRecurrence reports whether ii is below the instance graph's
// recurrence bound, and if it is, the bound: the least interval at which
// every cycle of distinct instances fits its latencies into its distances'
// worth of intervals (math.MaxInt when a cycle has distance 0).
// runWithOrder meets every edge between two placed instances (a self-edge
// it does not read), so below that bound no order places every instance.
//
// What is known of the arena graph's bound is kept until the graph is
// rebuilt (igKey), like its components and priority groups: an interval
// the graph's cycles admit bounds it from above, and one they refuse is
// answered with the exact bound. A search that climbs the ladder on an
// unchanged placement walks the graph once.
func belowRecurrence(ig *IGraph, ii int, sc *Scratch) (int, bool) {
	lo, hi := sc.knownRecurrence(ig) // lo ≤ bound ≤ hi
	if ii < lo || ii >= hi {
		return lo, ii < lo
	}
	if bound, refused := recurrenceBound(ig, ii, sc); refused {
		lo, hi = bound, bound
	} else {
		hi = ii
	}
	if ig == &sc.ig {
		sc.recLo, sc.recHi, sc.recOK = lo, hi, true
	}
	return lo, ii < lo
}

// knownRecurrence returns what the arena knows of ig's recurrence bound
// without walking it: lo ≤ bound ≤ hi, where lo is 1 or the exact bound.
func (sc *Scratch) knownRecurrence(ig *IGraph) (lo, hi int) {
	if ig == &sc.ig && sc.recOK {
		return sc.recLo, sc.recHi
	}
	return 1, math.MaxInt
}

// recurrenceBound returns the recurrence bound of ig if some cycle refuses
// interval from — the bound is then above from — and from itself
// otherwise. It raises the interval to the ratio of each refusing cycle it
// finds, ⌈latency / distance⌉, until no cycle refuses it (after Lawler's
// cycle-ratio iteration); a cycle refused at every interval, one whose
// distance is 0, makes the bound math.MaxInt.
func recurrenceBound(ig *IGraph, from int, sc *Scratch) (bound int, refused bool) {
	flat, off, cyclic := igSCCs(ig, sc)
	bound = from
	for i, rec := range cyclic {
		if !rec || off[i+1]-off[i] < 2 {
			continue // a lone instance's cycle is a self-edge
		}
		comp := flat[off[i]:off[i+1]]
		for {
			lat, dist, ok := positiveCycle(ig, comp, bound, sc)
			if !ok {
				break
			}
			if refused = true; dist <= 0 {
				return math.MaxInt, true
			}
			bound = int((lat + dist - 1) / dist)
		}
	}
	return bound, refused
}

// positiveCycle looks for a cycle among comp's instances, self-edges left
// out, whose latency exceeds ii times its distance, and returns its
// latency and distance. It relaxes longest paths under the weights
// Lat − ii·Dist, Bellman–Ford style, and after each pass that changed
// something looks for a cycle among the edges that last raised each
// instance: any such cycle is positive, and one appears within the passes
// a positive cycle makes the walk go on for. A walk that settles finds
// none, and so does one that reaches its cap on passes: a cycle missed
// only makes the bound read lower, so fewer fallbacks are skipped. The
// walk's memory is the arena's.
func positiveCycle(ig *IGraph, comp []int32, ii int, sc *Scratch) (lat, dist int64, ok bool) {
	n := ig.NumInstances()
	in := &sc.recIn
	in.Reset(n)
	d, walk := grown(sc.recDist, n), grown(sc.recWalk, 2*n)
	sc.recDist, sc.recWalk = d, walk
	pred, stamp := walk[:n], walk[n:]
	for _, v := range comp {
		in.Set(v)
		d[v], pred[v] = 0, -1
	}
	for pass := 0; pass <= 2*len(comp); pass++ {
		changed := false
		for _, v := range comp {
			for _, eid := range ig.Out(v) {
				e := &ig.Edges[eid]
				if e.Dst == v || !in.Has(e.Dst) {
					continue
				}
				if t := d[v] + int64(e.Lat) - int64(ii)*int64(e.Dist); t > d[e.Dst] {
					d[e.Dst], pred[e.Dst], changed = t, eid, true
				}
			}
		}
		if !changed {
			return 0, 0, false
		}
		for _, v := range comp {
			stamp[v] = 0
		}
		for k, v := range comp {
			walk := int32(k + 1)
			x := v
			for stamp[x] == 0 && pred[x] >= 0 {
				stamp[x] = walk
				x = ig.Edges[pred[x]].Src
			}
			if stamp[x] != walk {
				continue
			}
			lat, dist = 0, 0
			for y := x; ; {
				e := &ig.Edges[pred[y]]
				lat, dist, y = lat+int64(e.Lat), dist+int64(e.Dist), e.Src
				if y == x {
					break
				}
			}
			if lat > int64(ii)*dist {
				return lat, dist, true
			}
		}
	}
	return 0, 0, false
}
