package driver

import (
	"clusched/internal/ddg"
	"clusched/internal/pipeline"
)

// cacheValue is one memoized compilation outcome (result or error).
type cacheValue struct {
	res *pipeline.Result
	err error
}

// waiters is what a flight's followers wait on: the leader fills val and
// closes done after landing, so no follower reads a recycled slot.
type waiters struct {
	done chan struct{}
	val  cacheValue
}

// entry is one exact key's flight while pending, then its value, place in
// recency order and link in its canonical bucket's chain. Links are slot
// indices; slot 0, the recency ring's sentinel, ends every chain. g is the
// graph the key was made from: the key is a hash of it, so a job is
// answered by the entry only if its graph is ddg.Equal to g.
type entry struct {
	key                 cacheKey
	g                   *ddg.Graph
	val                 cacheValue
	shape               uint64 // with key's machine and options, the semKey
	prev, next, semNext int32
	w                   *waiters // pending only: nil until a follower comes
	pending             bool
}

func (e *entry) semKey() semKey { return semKey{e.shape, e.key.machine, e.key.opts} }

// resultCache is both in-memory tiers: a slab of entries grown by append
// with a free list, a map from exact key to slot, and one from canonical
// bucket to its chain of landed successful results. A pending entry is in
// no order, so it is never evicted. The Compiler serializes access.
type resultCache struct {
	cap, n  int // n counts landed entries
	slab    []entry
	free    int32
	byKey   map[cacheKey]int32
	buckets map[semKey]int32
}

// newCache sizes nothing: capacity bounds the population, it predicts none.
func newCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, slab: make([]entry, 1),
		byKey: make(map[cacheKey]int32), buckets: make(map[semKey]int32)}
}

// lookup finds k and the graph it was made from: a landed entry's value,
// which becomes the most recent, or a pending entry's waiters, made for its
// first follower.
func (c *resultCache) lookup(k cacheKey) (val cacheValue, w *waiters, g *ddg.Graph, ok bool) {
	i, ok := c.byKey[k]
	if !ok {
		return cacheValue{}, nil, nil, false
	}
	if e := &c.slab[i]; e.pending {
		if e.w == nil {
			e.w = &waiters{done: make(chan struct{})}
		}
		return cacheValue{}, e.w, e.g, true
	}
	c.unlink(i)
	c.pushFront(i)
	return c.slab[i].val, nil, c.slab[i].g, true
}

// candidates appends the results of bucket sk to dst, growing it once at
// most.
func (c *resultCache) candidates(sk semKey, dst []*pipeline.Result) []*pipeline.Result {
	head, n := c.buckets[sk], 0
	for i := head; i != 0; i = c.slab[i].semNext {
		n++
	}
	if n > cap(dst)-len(dst) {
		dst = append(make([]*pipeline.Result, 0, len(dst)+n), dst...)
	}
	for i := head; i != 0; i = c.slab[i].semNext {
		dst = append(dst, c.slab[i].val.res)
	}
	return dst
}

// begin makes k, made from g, pending in a slot its leader owns until land
// or abandon.
func (c *resultCache) begin(k cacheKey, g *ddg.Graph) int32 {
	if c.free == 0 {
		c.free = int32(len(c.slab))
		c.slab = append(c.slab, entry{})
	}
	i := c.free
	c.free = c.slab[i].next
	c.slab[i] = entry{key: k, g: g, pending: true}
	c.byKey[k] = i
	return i
}

// land makes slot i the most recent entry, chains a successful result into
// its bucket, evicts past capacity, and returns the flight's waiters.
func (c *resultCache) land(i int32, val cacheValue, shape uint64) *waiters {
	e := &c.slab[i]
	w := e.w
	e.val, e.shape, e.w, e.pending = val, shape, nil, false
	if val.err == nil && val.res != nil {
		sk := e.semKey()
		e.semNext, c.buckets[sk] = c.buckets[sk], i
	}
	c.pushFront(i)
	for c.n++; c.n > c.cap; {
		c.drop(c.slab[0].prev)
	}
	return w
}

// install caches val under k, made from g, as the most recent entry,
// replacing a landed value. A pending k is left alone: its flight's landing
// installs its value.
func (c *resultCache) install(k cacheKey, g *ddg.Graph, val cacheValue, shape uint64) {
	if i, ok := c.byKey[k]; ok {
		if c.slab[i].pending {
			return
		}
		c.drop(i)
	}
	c.land(c.begin(k, g), val, shape)
}

// drop evicts the landed entry in slot i, and takes it out of its bucket's
// chain if it is in one.
func (c *resultCache) drop(i int32) {
	c.unlink(i)
	e, sk := &c.slab[i], c.slab[i].semKey()
	switch p := c.buckets[sk]; {
	case e.val.err != nil || e.val.res == nil:
	case p != i:
		for c.slab[p].semNext != i {
			p = c.slab[p].semNext
		}
		c.slab[p].semNext = e.semNext
	case e.semNext != 0:
		c.buckets[sk] = e.semNext
	default:
		delete(c.buckets, sk)
	}
	c.abandon(i)
	c.n--
}

// abandon frees slot i and its key, and returns the waiters it held.
func (c *resultCache) abandon(i int32) *waiters {
	w := c.slab[i].w
	delete(c.byKey, c.slab[i].key)
	c.slab[i] = entry{next: c.free}
	c.free = i
	return w
}

func (c *resultCache) unlink(i int32) {
	e := &c.slab[i]
	c.slab[e.prev].next, c.slab[e.next].prev = e.next, e.prev
}

func (c *resultCache) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = 0, c.slab[0].next
	c.slab[e.next].prev, c.slab[0].next = i, i
}

// reset drops every landed entry. Pending entries keep their slots, so a
// flight running across a reset still lands.
func (c *resultCache) reset() {
	for c.n > 0 {
		c.drop(c.slab[0].prev)
	}
}
