package driver

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"clusched/internal/corpus"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// exactHitJobs is the exact tier's benchmark sample: corpus loops 0–63 of
// the default spec under seed 20030703, on 4c2b2l64r.
func exactHitJobs() []Job {
	spec := corpus.DefaultSpec()
	spec.Seed = 20030703
	m := machine.MustParse("4c2b2l64r")
	jobs := make([]Job, 64)
	for i := range jobs {
		jobs[i] = Job{Graph: spec.Loop(i), Machine: m, Opts: pipeline.Options{Replicate: true}}
	}
	return jobs
}

// TestExactHitCensus: a confirmed exact hit allocates nothing — neither for
// the graph the entry was made from nor for a structurally equal copy of
// it, whose match the equality check confirms field by field.
func TestExactHitCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx, c := context.Background(), New(Config{})
	jobs := exactHitJobs()
	for _, j := range jobs {
		c.Compile(ctx, j)
	}
	warm := c.CacheStats()
	for _, j := range jobs {
		copied := j
		copied.Graph = j.Graph.Clone()
		for name, job := range map[string]Job{"same graph": j, "equal copy": copied} {
			before := c.CacheStats().Hits
			least := ^uint64(0)
			for range censusRounds {
				least = min(least, mallocs(func() { c.Compile(ctx, job) }))
			}
			if st := c.CacheStats(); st.Hits != before+censusRounds || st.Misses != warm.Misses || st.SemanticHits != warm.SemanticHits {
				t.Fatalf("%s, %s: %+v, want %d more exact hits and no compilation", j.Graph.Name, name, st, censusRounds)
			}
			if least != 0 {
				t.Errorf("%s, %s: an exact hit allocates %d objects, want 0", j.Graph.Name, name, least)
			}
		}
	}
}

// TestExactKeyCollisionIsAMiss: an entry or flight under a job's exact key
// whose graph is another loop's — a fingerprint collision, planted here —
// answers nothing. The job gets its own compilation, booked as the one miss
// it is, and the planted entry is neither served nor replaced.
func TestExactKeyCollisionIsAMiss(t *testing.T) {
	jobs := distinctLoops(t, 2)
	j, other := jobs[0], jobs[1]
	want, err := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	otherRes, err := pipeline.Compile(other.Graph, other.Machine, other.Opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		planted cacheValue
		pending bool
	}{
		{"landed result", cacheValue{res: otherRes}, false},
		{"landed error", cacheValue{err: errors.New("planted: another loop's failure")}, false},
		{"pending flight", cacheValue{}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{})
			key := keyFor(j)
			c.mu.Lock()
			if tc.pending {
				c.cache.begin(key, other.Graph)
			} else {
				c.cache.install(key, other.Graph, tc.planted, other.Graph.CanonicalFingerprint())
			}
			c.mu.Unlock()

			// A job that joined the planted flight would wait for ever.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			out := c.do(ctx, j, "compile", time.Now())
			if out.Err != nil || out.Result == nil || out.CacheHit {
				t.Fatalf("job answered %+v, want its own compilation", out)
			}
			if out.Result.Loop != j.Graph || out.Result.II != want.II || out.Result.Length != want.Length {
				t.Fatalf("job answered II %d length %d for %s, want its own II %d length %d",
					out.Result.II, out.Result.Length, out.Result.Loop.Name, want.II, want.Length)
			}
			if got := *c.ledger[j.Opts.StrategyName()]; len(c.ledger) != 1 || got != [numAnswers]uint64{answerMiss: 1} {
				t.Fatalf("ledger %v, want exactly one miss", got)
			}

			c.mu.Lock()
			defer c.mu.Unlock()
			i, ok := c.cache.byKey[key]
			if !ok {
				t.Fatal("the planted entry is gone")
			}
			e := c.cache.slab[i]
			if e.g != other.Graph || e.pending != tc.pending || e.val != tc.planted {
				t.Fatalf("the planted entry now holds graph %s, pending %v, value %+v", e.g.Name, e.pending, e.val)
			}
		})
	}
}

// BenchmarkExactHit is the exact tier end to end: Compile of a loop whose
// result is cached under its own graph, over the 64 loops of exactHitJobs;
// one op is one hit.
func BenchmarkExactHit(b *testing.B) {
	ctx, c := context.Background(), New(Config{})
	jobs := exactHitJobs()
	for _, j := range jobs {
		c.Compile(ctx, j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compile(ctx, jobs[i%len(jobs)])
	}
	b.StopTimer()
	if st := c.CacheStats(); st.Hits != uint64(b.N) {
		b.Fatalf("%d of %d lookups were exact hits", st.Hits, b.N)
	}
}
