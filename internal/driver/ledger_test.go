package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/pipeline"
	"clusched/internal/telemetry"
)

// gatedStore is a memStore whose first Load blocks: it closes entered once
// the caller — necessarily the leader of a flight — is inside, and returns
// when gate is closed. A test holds a flight open with it for as long as
// it needs.
type gatedStore struct {
	*memStore
	once    sync.Once
	entered chan struct{}
	gate    chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{memStore: newMemStore(), entered: make(chan struct{}), gate: make(chan struct{})}
}

func (s *gatedStore) Load(j Job) (*pipeline.Result, error, bool) {
	s.once.Do(func() {
		close(s.entered)
		<-s.gate
	})
	return s.memStore.Load(j)
}

// joinSpy is a context that reports the first call of Done. With no
// in-flight cap configured the only Done the engine calls on a job's
// context is the one in a follower's select, so waiting closes exactly when
// the follower has found a flight and is about to block on it.
type joinSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newJoinSpy(ctx context.Context) *joinSpy {
	return &joinSpy{Context: ctx, waiting: make(chan struct{})}
}

func (s *joinSpy) Done() <-chan struct{} {
	s.once.Do(func() { close(s.waiting) })
	return s.Context.Done()
}

// heldFlight starts job on c under ctx, returns once its leader is held
// inside the gated store's Load, and delivers the leader's outcome on the
// channel.
func heldFlight(ctx context.Context, c *Compiler, store *gatedStore, job Job) <-chan Outcome {
	leader := make(chan Outcome, 1)
	go func() { leader <- c.do(ctx, job, "leader", time.Now()) }()
	<-store.entered
	return leader
}

// assertBooked checks the ledger's invariant: the five cache counters sum
// to the number of outcomes that are answers — those whose error, if any,
// is not a context error. A job is booked once, and only once answered.
func assertBooked(t *testing.T, c *Compiler, outs ...[]Outcome) {
	t.Helper()
	var answered uint64
	for _, batch := range outs {
		for _, o := range batch {
			if !ctxErr(o.Err) {
				answered++
			}
		}
	}
	st := c.CacheStats()
	if got := st.Hits + st.Misses + st.StoreHits + st.SemanticHits + st.SemanticStoreHits; got != answered {
		t.Errorf("ledger books %d jobs, %d outcomes are answers: %+v", got, answered, st)
	}
}

// TestFollowerBookedOnceAsAnswered pins "booked once, after the answer" on
// the one path where booking early is wrong: a flight follower.
func TestFollowerBookedOnceAsAnswered(t *testing.T) {
	job := sampleJobs(t, "tomcatv")[0]
	want := CacheStats{Misses: 1, Entries: 1, Strategies: map[string]StrategyStats{"paper": {Misses: 1}}}

	// The leader is cancelled while a follower waits on its flight: the
	// follower recompiles, and that compilation is the one thing booked.
	t.Run("leader cancelled", func(t *testing.T) {
		store := newGatedStore()
		c := New(Config{Store: store})
		lctx, cancelLeader := context.WithCancel(context.Background())
		defer cancelLeader()
		leader := heldFlight(lctx, c, store, job)
		fctx := newJoinSpy(context.Background())
		follower := make(chan Outcome, 1)
		go func() { follower <- c.do(fctx, job, "follower", time.Now()) }()
		<-fctx.waiting
		cancelLeader()
		close(store.gate)

		lo, fo := <-leader, <-follower
		if !errors.Is(lo.Err, context.Canceled) {
			t.Fatalf("leader: err = %v, want its cancellation", lo.Err)
		}
		if fo.Err != nil || fo.CacheHit || fo.Result == nil {
			t.Fatalf("follower: err=%v cached=%v, want a compilation of its own", fo.Err, fo.CacheHit)
		}
		if st := c.CacheStats(); !reflect.DeepEqual(st, want) {
			t.Fatalf("stats %+v, want %+v", st, want)
		}
		assertBooked(t, c, []Outcome{lo, fo})
	})

	// The follower's own context ends while it waits: it was answered by
	// nothing and is booked as nothing; the leader's compilation stands.
	t.Run("follower cancelled", func(t *testing.T) {
		store := newGatedStore()
		c := New(Config{Store: store})
		leader := heldFlight(context.Background(), c, store, job)
		ctx, cancelFollower := context.WithCancel(context.Background())
		defer cancelFollower()
		fctx := newJoinSpy(ctx)
		follower := make(chan Outcome, 1)
		go func() { follower <- c.do(fctx, job, "follower", time.Now()) }()
		<-fctx.waiting
		cancelFollower()
		fo := <-follower
		close(store.gate)
		lo := <-leader

		if !errors.Is(fo.Err, context.Canceled) || fo.CacheHit {
			t.Fatalf("follower: err=%v cached=%v, want its cancellation", fo.Err, fo.CacheHit)
		}
		if lo.Err != nil {
			t.Fatalf("leader: %v", lo.Err)
		}
		if st := c.CacheStats(); !reflect.DeepEqual(st, want) {
			t.Fatalf("stats %+v, want %+v", st, want)
		}
		assertBooked(t, c, []Outcome{lo, fo})
	})
}

// TestResetCacheResetsEveryView: CacheStats and the registry are read-outs
// of one ledger, so ResetCache cannot zero one and not the other.
func TestResetCacheResetsEveryView(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")[:3]
	reg := telemetry.NewRegistry()
	c := New(Config{Registry: reg})
	for run := 0; run < 2; run++ {
		if _, err := c.CompileAll(jobs); err != nil {
			t.Fatal(err)
		}
	}
	agree := func(when string) {
		t.Helper()
		text := exposition(t, reg)
		st := c.CacheStats()
		if hits, misses := promValue(text, `clusched_cache_lookups_total{result="hit"}`),
			promValue(text, `clusched_cache_lookups_total{result="miss"}`); hits != st.Hits || misses != st.Misses {
			t.Errorf("%s: registry reads %d hits / %d misses, CacheStats %d / %d", when, hits, misses, st.Hits, st.Misses)
		}
		if got, want := promValue(text, `clusched_jobs_total{strategy="paper"}`), st.Hits+st.Misses; got != want {
			t.Errorf("%s: registry reads %d jobs, CacheStats books %d", when, got, want)
		}
	}
	agree("before reset")
	c.ResetCache()
	agree("after reset")
	if _, err := c.CompileAll(jobs[:1]); err != nil {
		t.Fatal(err)
	}
	agree("after reset and one job")
}

func exposition(t *testing.T, reg *telemetry.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// distinctLoops returns n sample jobs no two of which are isomorphic, so
// that only the clones a test makes itself can meet in the canonical tier.
func distinctLoops(t *testing.T, n int) []Job {
	t.Helper()
	seen := map[uint64]bool{}
	var jobs []Job
	for _, j := range sampleJobs(t, "tomcatv", "swim") {
		if fp := j.Graph.CanonicalFingerprint(); !seen[fp] {
			seen[fp] = true
			jobs = append(jobs, j)
		}
	}
	if len(jobs) < n {
		t.Fatalf("%d distinct loops, want %d", len(jobs), n)
	}
	return jobs[:n]
}

// TestAnswerVocabulary drives one job through every answer there is and
// then walks the answers table, checking that every view speaks it: the
// ledger cell, CacheStats and its per-strategy slice, the two registry
// families, Outcome.CacheHit, and the "cache" span of the trace. A kind
// added to the table without a scenario here, a label or a span fails.
func TestAnswerVocabulary(t *testing.T) {
	loops := distinctLoops(t, 4)
	clone := func(j Job, seed int64) Job {
		j.Graph = ddg.PermuteRandom(j.Graph, j.Graph.Name+"#perm", seed)
		return j
	}
	// A warm store, as a restarted server finds it: an earlier engine
	// compiled loops[2] and loops[3].
	store := newGatedStore()
	if _, err := New(Config{Store: store.memStore}).CompileAll(loops[2:4]); err != nil {
		t.Fatal(err)
	}
	reg, tr := telemetry.NewRegistry(), telemetry.NewTrace()
	c := New(Config{Store: store, Registry: reg, Trace: tr})
	uncached := New(Config{CacheSize: -1})
	ctx := context.Background()

	var driven [numAnswers]*Outcome
	drive := func(a answer, e *Compiler, j Job) {
		out := e.do(ctx, j, "compile", time.Now())
		driven[a] = &out
	}
	// The flight first: the gate is the store's first Load, and holds this
	// job's leader — a miss of its own — while the follower joins.
	leader := heldFlight(ctx, c, store, loops[1])
	fctx := newJoinSpy(ctx)
	follower := make(chan Outcome, 1)
	go func() { follower <- c.do(fctx, loops[1], "follower", time.Now()) }()
	<-fctx.waiting
	close(store.gate)
	if lo := <-leader; lo.Err != nil || lo.CacheHit {
		t.Fatalf("flight leader: err=%v cached=%v", lo.Err, lo.CacheHit)
	}
	joined := <-follower
	driven[answerFlight] = &joined
	drive(answerMiss, c, loops[0])
	drive(answerLRU, c, loops[0])
	drive(answerSemantic, c, clone(loops[0], 3))
	drive(answerStore, c, loops[2])
	drive(answerSemanticStore, c, clone(loops[3], 5))
	drive(answerUncached, uncached, loops[0])

	want := [numAnswers]uint64{answerMiss: 1} // the flight's leader
	for a := answerNone + 1; a < numAnswers; a++ {
		out := driven[a]
		if out == nil {
			t.Fatalf("answer %d is never driven: add its scenario above", a)
		}
		if out.Err != nil {
			t.Fatalf("answer %d: %v", a, out.Err)
		}
		if out.CacheHit != a.cached() {
			t.Errorf("answer %d: CacheHit = %v, the table says %v", a, out.CacheHit, a.cached())
		}
		want[a]++
	}
	want[answerUncached] = 0 // booked by the other engine
	if got := *c.ledger["paper"]; len(c.ledger) != 1 || got != want {
		t.Fatalf("ledger %v, want paper: %v", c.ledger, want)
	}
	if got := *uncached.ledger["paper"]; got != [numAnswers]uint64{answerUncached: 1} {
		t.Fatalf("cache-off ledger %v, want one uncached job", got)
	}
	if st := uncached.CacheStats(); !reflect.DeepEqual(st, CacheStats{}) {
		t.Errorf("cache-off CacheStats %+v, want zero", st)
	}

	// Every view, kind by kind.
	st, text, spans := c.CacheStats(), exposition(t, reg), cacheSpans(t, tr)
	field := map[string]func(StrategyStats) uint64{
		"hit":                func(s StrategyStats) uint64 { return s.Hits },
		"miss":               func(s StrategyStats) uint64 { return s.Misses },
		"store_hit":          func(s StrategyStats) uint64 { return s.StoreHits },
		"semantic_hit":       func(s StrategyStats) uint64 { return s.SemanticHits },
		"semantic_store_hit": func(s StrategyStats) uint64 { return s.SemanticStoreHits },
	}
	totals := StrategyStats{st.Hits, st.Misses, st.StoreHits, st.SemanticHits, st.SemanticStoreHits}
	var jobs uint64
	for a := answerNone + 1; a < numAnswers; a++ {
		v := answers[a]
		if a == answerUncached {
			if v.label != "" || v.span != "" {
				t.Errorf("a cache-off compilation is no lookup and finds nothing: %+v", v)
			}
			continue
		}
		jobs += want[a]
		read := field[v.label]
		if read == nil {
			t.Fatalf("answer %d: label %q is no field of StrategyStats", a, v.label)
		}
		var byLabel uint64
		for b := range answers {
			if answers[b].label == v.label {
				byLabel += want[b]
			}
		}
		if read(totals) != byLabel || read(st.Strategies["paper"]) != byLabel {
			t.Errorf("%s: CacheStats reads %d, its paper slice %d, the ledger %d",
				v.label, read(totals), read(st.Strategies["paper"]), byLabel)
		}
		if got := promValue(text, `clusched_cache_lookups_total{result="`+v.label+`"}`); got != byLabel {
			t.Errorf("%s: registry reads %d, the ledger %d", v.label, got, byLabel)
		}
		if (v.span == "") != (a == answerMiss) {
			t.Errorf("answer %d: span %q — every answer but a miss found something to name", a, v.span)
		}
		if v.span != "" && spans[v.span] != int(want[a]) {
			t.Errorf("answer %d: %d %q spans, want %d", a, spans[v.span], v.span, want[a])
		}
		delete(spans, v.span)
	}
	if len(spans) != 0 {
		t.Errorf("cache spans outside the vocabulary: %v", spans)
	}
	if got := promValue(text, `clusched_jobs_total{strategy="paper"}`); got != jobs {
		t.Errorf("registry reads %d jobs, the ledger %d", got, jobs)
	}
}

// cacheSpans counts a trace's "cache" spans by name.
func cacheSpans(t *testing.T, tr *telemetry.Trace) map[string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Cat, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "cache" {
			names[ev.Name]++
		}
	}
	return names
}
