package driver

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// compileCensus is what one compilation on a warm arena costs: the Result
// and the six objects of the accepted schedule (pipeline's
// TestCompilationCensus).
const compileCensus = 7

// censusRounds is how often each job is measured; a census is the least
// reading, as pipeline's is, so a pool the collector emptied in between
// does not count.
const censusRounds = 3

// mallocs is how many heap objects one call of f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestMissFillCensus: a miss and its fill cost what the compilation costs
// and not one object more — no flight, no list element, and its class is a
// map value. Corpus loops under every strategy, in a table with room
// (emptied by ResetCache between rounds, so its slab and maps are grown)
// and in one that evicts an entry for every one it fills.
func TestMissFillCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, m, spec := context.Background(), machine.MustParse("4c2b2l64r"), corpus.DefaultSpec()
	for _, table := range []struct {
		name string
		size int
	}{{"room", 0}, {"evicting", 16}} {
		for _, strategy := range []string{"paper", "uas", "moddist", "unified"} {
			opts := pipeline.Options{Strategy: strategy, Replicate: strategy == "paper"}
			jobs := make([]Job, 48)
			for i := range jobs {
				jobs[i] = Job{Graph: spec.Loop(i), Machine: m, Opts: opts}
			}
			c := New(Config{CacheSize: table.size})
			least := make([]uint64, len(jobs))
			missed := make([]int, len(jobs))
			// Round 0 warms the arena, the table and every graph's memoized
			// keys. jobs[0] is not measured: after a ResetCache it books the
			// strategy's first ledger cell.
			for round := 0; round <= censusRounds; round++ {
				if table.size == 0 {
					c.ResetCache()
				}
				c.Compile(ctx, jobs[0])
				for i := 1; i < len(jobs); i++ {
					before := c.CacheStats().Misses
					var err error
					n := mallocs(func() { _, err = c.Compile(ctx, jobs[i]) })
					if err != nil || c.CacheStats().Misses != before+1 {
						continue // a rival that cannot schedule the loop, or an isomorph's semantic hit
					}
					if round == 1 || n < least[i] {
						least[i] = n
					}
					if round > 0 {
						missed[i]++
					}
				}
			}
			counted := 0
			for i := 1; i < len(jobs); i++ {
				if missed[i] != censusRounds {
					continue
				}
				counted++
				if least[i] != compileCensus {
					t.Errorf("%s table, %s, %s: a miss and its fill allocate %d objects, want %d",
						table.name, strategy, jobs[i].Graph.Name, least[i], compileCensus)
				}
			}
			if counted < len(jobs)*3/4 {
				t.Errorf("%s table, %s: only %d of %d loops were misses every round", table.name, strategy, counted, len(jobs)-1)
			}
			if st := c.CacheStats(); table.size > 0 && st.Entries != table.size {
				t.Errorf("%s table, %s: %d entries, want it full at %d", table.name, strategy, st.Entries, table.size)
			}
		}
	}
}

// TestSemanticHitCensus: a semantic hit costs what its RemapResult costs
// (the Result and the six objects of the mover's accept) and nothing more, however many
// members its class has: the class holds one result, and the remapped one
// is installed in a slot of the slab. The clones' canonical labelings are
// made before they are counted: a labeling is the job's, not the tier's.
func TestSemanticHitCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	orig := distinctLoops(t, 12)
	clones := make([]Job, len(orig))
	for i, j := range orig {
		clones[i] = j
		clones[i].Graph = ddg.PermuteRandom(j.Graph, j.Graph.Name+"#p", int64(i)+1)
		clones[i].Graph.CanonicalFingerprint()
	}
	c := New(Config{})
	hit, remap := make([]uint64, len(orig)), make([]uint64, len(orig))
	for round := 0; round <= censusRounds; round++ {
		c.ResetCache()
		outs, err := collect(context.Background(), c, orig)
		if err != nil {
			t.Fatal(err)
		}
		for i, clone := range clones {
			before := c.CacheStats().SemanticHits
			n := mallocs(func() { _, err = c.Compile(ctx, clone) })
			if err != nil || c.CacheStats().SemanticHits != before+1 {
				t.Fatalf("round %d, %s: err=%v, or not a semantic hit", round, clone.Graph.Name, err)
			}
			r := mallocs(func() { _, err = pipeline.RemapResult(outs[i].Result, clone.Graph, clone.Opts) })
			if err != nil {
				t.Fatalf("%s: remapped once, not twice: %v", clone.Graph.Name, err)
			}
			if round == 1 || n < hit[i] {
				hit[i] = n
			}
			if round == 1 || r < remap[i] {
				remap[i] = r
			}
		}
	}
	for i, clone := range clones {
		if hit[i] != remap[i] {
			t.Errorf("%s: a semantic hit allocates %d objects, its RemapResult %d", clone.Graph.Name, hit[i], remap[i])
		}
	}

	// A class of 41 members, the original and 40 clones installed by their
	// own semantic hits, costs a hit no more than a class of two.
	j := orig[0]
	clone := func(k int) Job {
		cl := j
		cl.Graph = ddg.PermuteRandom(j.Graph, fmt.Sprintf("%s#b%d", j.Graph.Name, k), int64(100+k))
		cl.Graph.CanonicalFingerprint()
		return cl
	}
	c.ResetCache()
	res, err := c.Compile(ctx, j)
	if err != nil {
		t.Fatal(err)
	}
	for k := range 40 {
		c.Compile(ctx, clone(k))
	}
	if st := c.CacheStats(); st.SemanticHits != 40 {
		t.Fatalf("%d of 40 clones were semantic hits; the class is not the one this test means", st.SemanticHits)
	}
	least, leastRemap := ^uint64(0), ^uint64(0)
	for k := 40; k < 40+censusRounds; k++ {
		cl := clone(k)
		n := mallocs(func() { _, err = c.Compile(ctx, cl) })
		if err != nil || c.CacheStats().SemanticHits != uint64(k+1) {
			t.Fatalf("clone %d: err=%v, or not a semantic hit", k, err)
		}
		least = min(least, n)
		leastRemap = min(leastRemap, mallocs(func() { pipeline.RemapResult(res, cl.Graph, cl.Opts) }))
	}
	if least != leastRemap {
		t.Errorf("a semantic hit from a class of 41 allocates %d objects, want its RemapResult's %d", least, leastRemap)
	}
}
