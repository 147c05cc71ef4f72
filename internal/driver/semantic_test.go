package driver

import (
	"context"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/telemetry"
	"clusched/internal/workload"
)

// permutedJobs returns the sample jobs plus, for each, a renamed and
// node/edge-reordered clone job — exact fingerprints differ, canonical
// fingerprints match.
func permutedJobs(t *testing.T, bench string) (orig, clones []Job) {
	t.Helper()
	orig = sampleJobs(t, bench)
	for i, j := range orig {
		clone := ddg.PermuteRandom(j.Graph, j.Graph.Name+"#perm", int64(i)*7919+3)
		if clone.Fingerprint() == j.Graph.Fingerprint() {
			t.Fatalf("%s: clone kept the exact fingerprint, test defeated", j.Graph.Name)
		}
		clones = append(clones, Job{Graph: clone, Machine: j.Machine, Opts: j.Opts})
	}
	return orig, clones
}

// TestSemanticCacheHit: after compiling a benchmark, submitting renamed
// and reordered clones of every loop is served entirely from the canonical
// tier — zero recompilations — and every served schedule verifies on the
// clone's own graph.
func TestSemanticCacheHit(t *testing.T) {
	orig, clones := permutedJobs(t, "mgrid")
	c := New(Config{})
	outs, err := collect(context.Background(), c, orig)
	if err != nil {
		t.Fatal(err)
	}
	base := c.CacheStats()

	couts, err := collect(context.Background(), c, clones)
	if err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.Misses != base.Misses {
		t.Fatalf("clones forced %d recompilations", st.Misses-base.Misses)
	}
	// Delta, not absolute: a benchmark may contain loops isomorphic to
	// each other, which already score semantic hits in the original batch.
	if got, want := st.SemanticHits-base.SemanticHits, uint64(len(clones)); got != want {
		t.Fatalf("clone batch scored %d semantic hits, want %d (stats: %+v)", got, want, st)
	}
	for i, o := range couts {
		if o.Err != nil || !o.CacheHit {
			t.Fatalf("clone %d: err=%v cached=%v", i, o.Err, o.CacheHit)
		}
		if o.Result.Loop != clones[i].Graph {
			t.Fatalf("clone %d: result is not remapped onto the clone's graph", i)
		}
		if o.Result.II != outs[i].Result.II || o.Result.Length != outs[i].Result.Length ||
			o.Result.Comms != outs[i].Result.Comms {
			t.Fatalf("clone %d: remapped headline numbers diverge from the cached compilation", i)
		}
	}
	if ss := st.Strategies["paper"]; ss.SemanticHits != st.SemanticHits {
		t.Fatalf("per-strategy semantic hits = %d, want %d", ss.SemanticHits, st.SemanticHits)
	}

	// Re-submitting a clone is now an EXACT hit: the remapped result was
	// installed under the clone's own fingerprint.
	before := st.Hits
	if _, err := c.Compile(context.Background(), clones[0]); err != nil {
		t.Fatal(err)
	}
	if st2 := c.CacheStats(); st2.Hits != before+1 || st2.SemanticHits != st.SemanticHits {
		t.Fatalf("re-submitted clone not served by the exact tier: %+v", st2)
	}
}

// TestSemanticStoreHit: a fresh Compiler sharing the persistent store
// serves a permuted clone from the store — the v4 JobKey is canonical, so
// the entry written for the original is found, remapped and re-verified.
func TestSemanticStoreHit(t *testing.T) {
	orig, clones := permutedJobs(t, "mgrid")
	store := newMemStore()
	c1 := New(Config{Store: store})
	if _, err := collect(context.Background(), c1, orig); err != nil {
		t.Fatal(err)
	}

	// "Restarted server": cold LRU, warm store, permuted presentations.
	c2 := New(Config{Store: store})
	outs, err := collect(context.Background(), c2, clones)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.CacheStats()
	if st.Misses != 0 {
		t.Fatalf("clones recompiled %d times despite a warm store", st.Misses)
	}
	if st.SemanticStoreHits == 0 {
		t.Fatalf("no semantic store hits recorded: %+v", st)
	}
	if st.SemanticStoreHits+st.SemanticHits != uint64(len(clones)) {
		t.Fatalf("semantic hits %d + %d don't cover the %d clones: %+v",
			st.SemanticStoreHits, st.SemanticHits, len(clones), st)
	}
	for i, o := range outs {
		if o.Err != nil || !o.CacheHit || o.Result.Loop != clones[i].Graph {
			t.Fatalf("clone %d not served remapped from the store (err=%v)", i, o.Err)
		}
	}
	if st.HitRate() != 1 {
		t.Fatalf("HitRate = %v, want 1 (semantic hits must count as served)", st.HitRate())
	}
}

// TestSemanticEvictionUnindexes: once a result is evicted from the LRU,
// the canonical index must no longer serve it — the next isomorphic job
// recompiles instead of remapping a result the cache let go of.
func TestSemanticEvictionUnindexes(t *testing.T) {
	loops := workload.LoopsFor("mgrid")
	m := machine.MustParse("4c1b2l64r")
	opts := pipeline.Options{Replicate: true}
	j := Job{Graph: loops[0].Graph, Machine: m, Opts: opts}

	c := New(Config{CacheSize: 2})
	if _, err := c.Compile(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// Two more distinct compilations evict loops[0] from the 2-entry LRU.
	for _, l := range loops[1:3] {
		if _, err := c.Compile(context.Background(), Job{Graph: l.Graph, Machine: m, Opts: opts}); err != nil {
			t.Fatal(err)
		}
	}
	clone := ddg.PermuteRandom(j.Graph, "evicted#perm", 11)
	if _, err := c.Compile(context.Background(), Job{Graph: clone, Machine: m, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.SemanticHits != 0 {
		t.Fatalf("evicted result served semantically: %+v", st)
	}
	if st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (the clone must recompile)", st.Misses)
	}
}

// TestSemanticIndexOptionsApart: the canonical tier must not serve a
// result compiled under different options, however isomorphic the graphs.
func TestSemanticIndexOptionsApart(t *testing.T) {
	loops := workload.LoopsFor("mgrid")
	m := machine.MustParse("4c1b2l64r")
	g := loops[0].Graph
	c := New(Config{})
	if _, err := c.Compile(context.Background(), Job{Graph: g, Machine: m, Opts: pipeline.Options{Replicate: true}}); err != nil {
		t.Fatal(err)
	}
	clone := ddg.PermuteRandom(g, "opts#perm", 5)
	if _, err := c.Compile(context.Background(), Job{Graph: clone, Machine: m, Opts: pipeline.Options{}}); err != nil {
		t.Fatal(err)
	}
	st := c.CacheStats()
	if st.SemanticHits != 0 {
		t.Fatalf("options-mismatched job served semantically: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
}

// TestSemanticMetrics: the semantic_hit outcome must flow into the
// cache-lookup counter vector alongside hit/miss/store_hit.
func TestSemanticMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{Registry: reg})
	loops := workload.LoopsFor("mgrid")
	m := machine.MustParse("4c1b2l64r")
	opts := pipeline.Options{Replicate: true}
	if _, err := c.Compile(context.Background(), Job{Graph: loops[0].Graph, Machine: m, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	clone := ddg.PermuteRandom(loops[0].Graph, "metrics#perm", 23)
	if _, err := c.Compile(context.Background(), Job{Graph: clone, Machine: m, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	text := exposition(t, reg)
	for _, want := range []string{
		`clusched_cache_lookups_total{result="miss"} 1`,
		`clusched_cache_lookups_total{result="semantic_hit"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
}
