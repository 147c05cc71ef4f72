package driver

// The result cache as it was before resultCache: a container/list LRU with
// an eviction hook, a map of flights, and the canonical index as a map of
// result slices. Kept verbatim as the oracle of TestCacheMatchesRetiredCache
// but for three names: the value type is retiredValue (cacheValue is
// resultCache's), the Compiler's two index methods are methods of
// retiredCache, which holds the three maps the Compiler held, and the
// index's key is classKey, resultCache's class key (the retired key had the
// same three fields, a shape digest in place of the canonical fingerprint).

import (
	"container/list"

	"clusched/internal/pipeline"
)

// retiredValue is one memoized compilation outcome (result or error).
// Successful results are also indexed in the Compiler's canonical tier;
// sk/indexed remember the bucket so eviction can remove them from it.
type retiredValue struct {
	res     *pipeline.Result
	err     error
	sk      classKey
	indexed bool
}

type lruEntry struct {
	key cacheKey
	val retiredValue
}

// lruCache is a plain LRU over cacheKeys. It is not internally locked; the
// Compiler serializes access. onEvict, when non-nil, observes every value
// the cache lets go of — evicted past capacity or replaced by an overwrite
// — under the same serialization, so the Compiler's canonical index stays
// in lockstep with residency.
type lruCache struct {
	cap     int
	ll      *list.List // front = most recently used
	byKey   map[cacheKey]*list.Element
	onEvict func(retiredValue)
}

func newLRU(capacity int, onEvict func(retiredValue)) *lruCache {
	// The map grows on demand: capacity is an upper bound (often the large
	// default), not the expected population, so no preallocation hint.
	return &lruCache{cap: capacity, ll: list.New(), byKey: make(map[cacheKey]*list.Element), onEvict: onEvict}
}

func (c *lruCache) get(k cacheKey) (retiredValue, bool) {
	el, ok := c.byKey[k]
	if !ok {
		return retiredValue{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

func (c *lruCache) add(k cacheKey, v retiredValue) {
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*lruEntry)
		if c.onEvict != nil {
			c.onEvict(e.val)
		}
		e.val = v
		return
	}
	c.byKey[k] = c.ll.PushFront(&lruEntry{key: k, val: v})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*lruEntry)
		delete(c.byKey, e.key)
		if c.onEvict != nil {
			c.onEvict(e.val)
		}
	}
}

func (c *lruCache) len() int { return c.ll.Len() }

// flight is one in-progress compilation that identical concurrent jobs
// join instead of recomputing. val is written before done is closed.
type flight struct {
	done chan struct{}
	val  retiredValue
}

// retiredCache is the three maps the Compiler held.
type retiredCache struct {
	cache   *lruCache
	pending map[cacheKey]*flight // in-flight compilations, for deduplication
	// semIdx is the canonical tier of the in-memory cache: every cached
	// successful result, bucketed by ShapeHash/machine/options. An exact
	// miss probes its bucket for a result whose loop is isomorphic to the
	// job's and serves it remapped through the isomorphism (re-verified by
	// pipeline.RemapResult). Kept in lockstep with the LRU via the eviction
	// hook.
	semIdx map[classKey][]*pipeline.Result
}

func newRetiredCache(size int) *retiredCache {
	c := &retiredCache{}
	c.cache = newLRU(size, c.unindex)
	c.pending = make(map[cacheKey]*flight)
	c.semIdx = make(map[classKey][]*pipeline.Result)
	return c
}

// cacheAdd inserts an outcome into the LRU and, for successful results,
// into the canonical index. Callers hold c.mu.
func (c *retiredCache) cacheAdd(key cacheKey, val retiredValue, sk classKey) {
	if val.err == nil && val.res != nil {
		val.sk = sk
		val.indexed = true
		c.semIdx[sk] = append(c.semIdx[sk], val.res)
	}
	c.cache.add(key, val)
}

// unindex is the LRU's eviction hook: it removes an evicted or overwritten
// result from its canonical bucket so the index never serves results the
// cache has let go of. Runs under c.mu (evictions happen inside cacheAdd).
func (c *retiredCache) unindex(v retiredValue) {
	if !v.indexed {
		return
	}
	b := c.semIdx[v.sk]
	for i, r := range b {
		if r == v.res {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			break
		}
	}
	if len(b) == 0 {
		delete(c.semIdx, v.sk)
	} else {
		c.semIdx[v.sk] = b
	}
}

// reset is what ResetCache did: a new LRU and canonical index, the
// flights kept.
func (c *retiredCache) reset() {
	c.cache = newLRU(c.cache.cap, c.unindex)
	c.semIdx = make(map[classKey][]*pipeline.Result)
}
