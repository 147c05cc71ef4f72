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

// entry is one exact key's flight while pending, then its value and place
// in recency order. Links are slot indices; slot 0 is the recency ring's
// sentinel. g is the graph the key was made from: the key is a hash of it,
// so a job is answered by the entry only if its graph is ddg.Equal to g.
type entry struct {
	key        cacheKey
	g          *ddg.Graph
	val        cacheValue
	canon      uint64 // with key's machine and options, the classKey
	prev, next int32
	w          *waiters // pending only: nil until a follower comes
	pending    bool
}

// member returns the key of the entry's class, and whether the entry is a
// member of it: only a successful result is.
func (e *entry) member() (classKey, bool) {
	return classKey{e.canon, e.key.machine, e.key.opts}, e.val.err == nil && e.val.res != nil
}

// class is one isomorphism class of the canonical tier: res is the newest
// successful result landed in it, n the number of landed entries holding
// one of its results. The class answers while n > 0, so res may outlive the
// entry it landed in; every member is a remap of the same schedule.
type class struct {
	res *pipeline.Result
	n   int32
}

// resultCache is both in-memory tiers: a slab of entries grown by append
// with a free list, a map from exact key to slot, and one from class key to
// its class. A pending entry is in no order, so it is never evicted. The
// Compiler serializes access.
type resultCache struct {
	cap, n  int // n counts landed entries
	slab    []entry
	free    int32
	byKey   map[cacheKey]int32
	classes map[classKey]class
}

// newCache sizes nothing: capacity bounds the population, it predicts none.
func newCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, slab: make([]entry, 1),
		byKey: make(map[cacheKey]int32), classes: make(map[classKey]class)}
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

// land makes slot i the most recent entry, makes a successful result the
// newest of its class, evicts past capacity, and returns the flight's
// waiters.
func (c *resultCache) land(i int32, val cacheValue, canon uint64) *waiters {
	e := &c.slab[i]
	w := e.w
	e.val, e.canon, e.w, e.pending = val, canon, nil, false
	if ck, ok := e.member(); ok {
		c.classes[ck] = class{res: val.res, n: c.classes[ck].n + 1}
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
func (c *resultCache) install(k cacheKey, g *ddg.Graph, val cacheValue, canon uint64) {
	if i, ok := c.byKey[k]; ok {
		if c.slab[i].pending {
			return
		}
		c.drop(i)
	}
	c.land(c.begin(k, g), val, canon)
}

// drop evicts the landed entry in slot i, and counts it out of its class,
// which goes with its last member.
func (c *resultCache) drop(i int32) {
	c.unlink(i)
	if ck, ok := c.slab[i].member(); ok {
		if cl := c.classes[ck]; cl.n > 1 {
			cl.n--
			c.classes[ck] = cl
		} else {
			delete(c.classes, ck)
		}
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
