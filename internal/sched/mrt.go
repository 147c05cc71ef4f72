package sched

import (
	"math/bits"

	"clusched/internal/ddg"
	"clusched/internal/machine"
)

// mrt is the modulo reservation table: per cluster and functional-unit
// class, the number of operations issued in each slot of the II window,
// plus the bus reservation table. A copy occupies one bus for the full bus
// latency starting at its issue slot. The tables are flat slices resized in
// place by the Scratch arena, so re-arming the table for a new II attempt
// allocates nothing once the buffers have grown.
//
// Each (cluster, class) row also carries a bitmask of its full slots — a
// class the cluster has no unit of is full everywhere — so the scheduler
// finds the first or last free slot of a window a word at a time
// (firstFree, lastFree) instead of a cycle at a time.
type mrt struct {
	ii       int
	m        machine.Config
	fu       []int16  // [(cluster*NumClasses + class)*ii + slot]
	full     []uint64 // [(cluster*NumClasses + class)*words + slot/64], bit slot%64
	words    int      // words per row of full
	bus      []int16  // [slot]
	busSlots int      // cycles a copy holds a bus
}

// reset re-arms the table for a machine, cluster count and II, clearing
// every reservation.
func (t *mrt) reset(m machine.Config, k, ii int) {
	t.ii = ii
	t.m = m
	t.fu = zeroed(t.fu, k*ddg.NumClasses*ii)
	t.words = (ii + 63) / 64
	t.full = zeroed(t.full, k*ddg.NumClasses*t.words)
	for c := 0; c < k; c++ {
		for cl := 0; cl < ddg.NumClasses; cl++ {
			if m.FUAt(c, ddg.Class(cl)) > 0 {
				continue
			}
			row := t.full[(c*ddg.NumClasses+cl)*t.words:][:t.words]
			for w := range row {
				row[w] = ^uint64(0)
			}
		}
	}
	t.bus = zeroed(t.bus, ii)
	t.busSlots = m.BusLatency
	if t.busSlots <= 0 {
		t.busSlots = 1
	}
}

func (t *mrt) slot(time int) int {
	s := time % t.ii
	if s < 0 {
		s += t.ii
	}
	return s
}

// busFree reports whether a copy can issue at the given absolute time: a
// bus is free in each of the cycles it holds one.
func (t *mrt) busFree(time int) bool {
	if t.busSlots > t.ii {
		return false // a copy longer than the II can never fit
	}
	for d := 0; d < t.busSlots; d++ {
		if int(t.bus[t.slot(time+d)]) >= t.m.Buses {
			return false
		}
	}
	return true
}

// place reserves the resources for the instance at the given time.
func (t *mrt) place(in Instance, op ddg.OpKind, time int) {
	if in.IsCopy {
		for d := 0; d < t.busSlots; d++ {
			t.bus[t.slot(time+d)]++
		}
		return
	}
	cl := op.Class()
	c := int(in.Cluster)
	row, s := c*ddg.NumClasses+int(cl), t.slot(time)
	if t.fu[row*t.ii+s]++; int(t.fu[row*t.ii+s]) >= t.m.FUAt(c, cl) {
		t.full[row*t.words+s>>6] |= 1 << (s & 63)
	}
}

// earliest returns the first time in [from, from+n), n ≤ II, at which the
// instance can issue: a copy checks its bus cycles time by time, any other
// instance reads its row's free slots a word at a time.
func (t *mrt) earliest(in Instance, op ddg.OpKind, from, n int) (int, bool) {
	if !in.IsCopy {
		return t.firstFree(int(in.Cluster)*ddg.NumClasses+int(op.Class()), from, n)
	}
	for time := from; time < from+n; time++ {
		if t.busFree(time) {
			return time, true
		}
	}
	return 0, false
}

// latest returns the last time in (from−n, from], n ≤ II, at which the
// instance can issue; see earliest.
func (t *mrt) latest(in Instance, op ddg.OpKind, from, n int) (int, bool) {
	if !in.IsCopy {
		return t.lastFree(int(in.Cluster)*ddg.NumClasses+int(op.Class()), from, n)
	}
	for time := from; time > from-n; time-- {
		if t.busFree(time) {
			return time, true
		}
	}
	return 0, false
}

// firstFree returns the first time in [from, from+n), n ≤ II, whose slot in
// the given (cluster, class) row is not full. The window wraps around the
// row at most once: its slots are the run from from's slot to the row's
// end, then the run from slot 0.
func (t *mrt) firstFree(row, from, n int) (int, bool) {
	mask := t.full[row*t.words:][:t.words]
	s := t.slot(from)
	for n > 0 {
		end := min(t.ii, s+n)
		if f := firstClear(mask, s, end); f >= 0 {
			return from + f - s, true
		}
		from, n, s = from+end-s, n-(end-s), 0
	}
	return 0, false
}

// lastFree returns the last time in (from−n, from], n ≤ II, whose slot in
// the given row is not full, wrapping like firstFree in the other
// direction.
func (t *mrt) lastFree(row, from, n int) (int, bool) {
	mask := t.full[row*t.words:][:t.words]
	s := t.slot(from)
	for n > 0 {
		lo := max(0, s-n+1)
		if f := lastClear(mask, lo, s+1); f >= 0 {
			return from - (s - f), true
		}
		from, n, s = from-(s-lo+1), n-(s-lo+1), t.ii-1
	}
	return 0, false
}

// firstClear returns the lowest clear bit of mask in [lo, hi), or −1.
func firstClear(mask []uint64, lo, hi int) int {
	for w := lo >> 6; w<<6 < hi; w++ {
		free := ^mask[w]
		if w == lo>>6 {
			free &= ^uint64(0) << (lo & 63)
		}
		if free != 0 {
			if f := w<<6 + bits.TrailingZeros64(free); f < hi {
				return f
			}
			return -1
		}
	}
	return -1
}

// lastClear returns the highest clear bit of mask in [lo, hi), or −1.
func lastClear(mask []uint64, lo, hi int) int {
	for w := (hi - 1) >> 6; w >= lo>>6; w-- {
		free := ^mask[w]
		if w == (hi-1)>>6 {
			free &= ^uint64(0) >> (63 - (hi-1)&63)
		}
		if free != 0 {
			if f := w<<6 + 63 - bits.LeadingZeros64(free); f >= lo {
				return f
			}
			return -1
		}
	}
	return -1
}
