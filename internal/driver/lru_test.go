package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"clusched/internal/pipeline"
)

// TestCacheMatchesRetiredCache drives resultCache and the cache it replaced
// (lru_reference_test.go) with the same seeded sequences of what the engine
// does to its cache: exact lookups, flights begun, landed and cancelled,
// followers joining them, semantic installs over landed and absent keys,
// and resets. After every step both must hold the same recency order, the
// same values, the same pending keys and the same Entries; every class must
// count the members of the retired cache's bucket of the same key and hold
// the newest result landed in it; and a flight's landing or cancellation
// must hand back the waiters its followers hold.
func TestCacheMatchesRetiredCache(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, DefaultCacheSize} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			for seed := int64(1); seed <= 50; seed++ {
				if err := runCacheModel(capacity, seed, 600); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func runCacheModel(capacity int, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	// Sixteen keys over two option sets and five canonical fingerprints, so
	// classes hold several keys and some keys share a fingerprint but not a
	// class.
	keys := make([]cacheKey, 16)
	for i := range keys {
		keys[i] = cacheKey{graph: uint64(i), machine: "m", opts: pipeline.Options{Strategy: []string{"paper", "uas"}[i%2]}}
	}
	canonOf := func(k cacheKey) uint64 { return k.graph % 5 }
	classOf := func(k cacheKey) classKey { return classKey{canonOf(k), k.machine, k.opts} }
	failed := errors.New("unschedulable")
	got, want := newCache(capacity), newRetiredCache(capacity)
	slots := map[cacheKey]int32{}             // pending keys' slots
	followers := map[cacheKey]*waiters{}      // what a pending key's followers wait on
	newest := map[classKey]*pipeline.Result{} // the last result landed in each class
	retire := func(k cacheKey, w *waiters) error {
		if w != followers[k] {
			return fmt.Errorf("flight of %v hands back waiters %p, its followers hold %p", k, w, followers[k])
		}
		delete(followers, k)
		delete(slots, k)
		delete(want.pending, k)
		return nil
	}
	for step := 0; step < steps; step++ {
		k := keys[rng.Intn(len(keys))]
		_, pending := slots[k]
		_, cached := want.cache.byKey[k]
		var op string
		switch r := rng.Intn(100); {
		case r == 0:
			op = "reset"
			want.reset()
			got.reset()
		case r < 25 && pending:
			op = "land"
			v := cacheValue{res: &pipeline.Result{}}
			if rng.Intn(4) == 0 {
				v = cacheValue{err: failed}
			}
			f := want.pending[k]
			f.val = retiredValue{res: v.res, err: v.err}
			want.cacheAdd(k, f.val, classOf(k))
			close(f.done)
			if v.err == nil {
				newest[classOf(k)] = v.res
			}
			if err := retire(k, got.land(slots[k], v, canonOf(k))); err != nil {
				return err
			}
		case r < 30 && pending:
			op = "cancel"
			if err := retire(k, got.abandon(slots[k])); err != nil {
				return err
			}
		case r < 50 && !pending && !cached:
			op = "lead"
			want.pending[k] = &flight{done: make(chan struct{})}
			slots[k] = got.begin(k, nil)
		case r < 70:
			// The engine serves a semantic answer for a pending key without
			// installing it; resultCache.install leaves such a key alone.
			op = "install"
			res := &pipeline.Result{}
			if !pending {
				want.cacheAdd(k, retiredValue{res: res}, classOf(k))
				newest[classOf(k)] = res
			}
			got.install(k, nil, cacheValue{res: res}, canonOf(k))
		default:
			op = "lookup"
			wv, hit := want.cache.get(k)
			gv, w, _, ok := got.lookup(k)
			switch {
			case hit && (!ok || w != nil || gv != cacheValue{wv.res, wv.err}):
				return fmt.Errorf("step %d: lookup %v = %v, %p, %v; want %v", step, k, gv, w, ok, wv)
			case pending && (!ok || w == nil || followers[k] != nil && followers[k] != w):
				return fmt.Errorf("step %d: lookup of pending %v = %v, %p, %v; want its waiters", step, k, gv, w, ok)
			case !hit && !pending && ok:
				return fmt.Errorf("step %d: lookup of absent %v found %v, %p", step, k, gv, w)
			}
			if pending {
				followers[k] = w
			}
		}
		if err := sameCache(got, want, newest); err != nil {
			return fmt.Errorf("step %d (%s %v): %v", step, op, k, err)
		}
	}
	return nil
}

// sameCache compares everything the two caches hold. newest is the last
// result the model landed in each class.
func sameCache(got *resultCache, want *retiredCache, newest map[classKey]*pipeline.Result) error {
	var order, back, wantOrder []cacheKey
	for i := got.slab[0].next; i != 0; i = got.slab[i].next {
		order = append(order, got.slab[i].key)
	}
	for i := got.slab[0].prev; i != 0; i = got.slab[i].prev {
		back = append(back, got.slab[i].key)
	}
	slices.Reverse(back)
	for el := want.cache.ll.Front(); el != nil; el = el.Next() {
		wantOrder = append(wantOrder, el.Value.(*lruEntry).key)
	}
	if !slices.Equal(order, wantOrder) || !slices.Equal(back, order) {
		return fmt.Errorf("recency order %v (backwards %v), want %v", order, back, wantOrder)
	}
	if got.n != want.cache.len() {
		return fmt.Errorf("Entries %d, want %d", got.n, want.cache.len())
	}
	for k, el := range want.cache.byKey {
		v := el.Value.(*lruEntry).val
		if e := &got.slab[got.byKey[k]]; e.pending || e.val != (cacheValue{v.res, v.err}) {
			return fmt.Errorf("%v holds %v (pending %v), want %v", k, e.val, e.pending, v)
		}
	}
	var pending []cacheKey
	for k, i := range got.byKey {
		if got.slab[i].pending {
			pending = append(pending, k)
		}
	}
	if len(pending) != len(want.pending) || len(got.byKey) != got.n+len(pending) {
		return fmt.Errorf("%d keys, %d pending, %d landed; want %d pending", len(got.byKey), len(pending), got.n, len(want.pending))
	}
	for _, k := range pending {
		if want.pending[k] == nil {
			return fmt.Errorf("%v pending, want not", k)
		}
	}
	free := 0
	for i := got.free; i != 0; i = got.slab[i].next {
		free++
	}
	if free+len(got.byKey)+1 != len(got.slab) {
		return fmt.Errorf("%d free slots and %d keys in a slab of %d and its sentinel", free, len(got.byKey), len(got.slab)-1)
	}
	if len(got.classes) != len(want.semIdx) {
		return fmt.Errorf("%d classes, want %d", len(got.classes), len(want.semIdx))
	}
	for ck, b := range want.semIdx {
		if cl := got.classes[ck]; int(cl.n) != len(b) || cl.res != newest[ck] {
			return fmt.Errorf("class %v counts %d members and holds %p, want %d and %p", ck, cl.n, cl.res, len(b), newest[ck])
		}
	}
	return nil
}
