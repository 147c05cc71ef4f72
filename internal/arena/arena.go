// Package arena provides the small buffer-recycling primitives behind the
// compiler's scratch allocators (sched.Scratch, partition.Scratch, …):
// in-place slice resizing, O(1)-reset membership marks and a pool of
// scratch values. They exist so a steady-state II attempt allocates nothing
// — buffers grow to a workload's high-water mark once and are then reused.
package arena

import (
	"sync"
	"sync/atomic"
)

// Grown returns buf resized to length n, reusing the backing array when
// capacity allows. Contents beyond the old capacity are zero; the rest are
// whatever the buffer last held.
func Grown[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return append(buf[:cap(buf)], make([]T, n-cap(buf))...)
}

// Zeroed returns buf resized to length n with every element zero.
func Zeroed[T any](buf []T, n int) []T {
	buf = Grown(buf, n)
	clear(buf)
	return buf
}

// Marks is an epoch-stamped membership set over dense int32 ids: Reset is
// O(1) (bump the epoch) instead of clearing or reallocating a map.
type Marks struct {
	m     []uint32
	epoch uint32
}

// Reset empties the set and sizes it for ids in [0, n).
func (mk *Marks) Reset(n int) {
	// A fresh or regrown region is zero-filled and old regions hold stale
	// epochs; epochs only grow, so neither can equal the new epoch until
	// wraparound, which is handled by clearing.
	mk.m = Grown(mk.m, n)
	mk.epoch++
	if mk.epoch == 0 {
		// Clear the full capacity, not just the current length: a later
		// Reset may regrow into the tail, which must not retain pre-wrap
		// epochs.
		clear(mk.m[:cap(mk.m)])
		mk.epoch = 1
	}
}

// Has reports whether id i is in the set.
func (mk *Marks) Has(i int32) bool { return mk.m[i] == mk.epoch }

// Set adds id i to the set.
func (mk *Marks) Set(i int32) { mk.m[i] = mk.epoch }

// Pool is a sync.Pool of *T with one slot outside it that holds the value
// put back last: two GC cycles empty a sync.Pool, and a lone user would
// regrow its value, dozens of buffers, at moments no input decides.
type Pool[T any] struct {
	hot  atomic.Pointer[T]
	pool sync.Pool
}

// Get borrows a value: the hot one if it is in, else a pooled or new one.
func (p *Pool[T]) Get() *T {
	if x := p.hot.Swap(nil); x != nil {
		return x
	}
	if x, ok := p.pool.Get().(*T); ok {
		return x
	}
	return new(T)
}

// Put returns x, to the hot slot if it is empty.
func (p *Pool[T]) Put(x *T) {
	if !p.hot.CompareAndSwap(nil, x) {
		p.pool.Put(x)
	}
}
