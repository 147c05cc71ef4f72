// Package driver is the concurrent batch-compilation engine: one shared
// Compiler replaces the ad-hoc worker pools and memo maps that used to be
// re-implemented by every consumer of the pipeline. It offers a bounded
// worker pool, deterministic result ordering (outcome i always corresponds
// to job i, regardless of scheduling), a per-(graph-fingerprint, machine,
// options) LRU result cache with hit/miss accounting — backed by a second,
// canonical tier that serves results cached for isomorphic loops by
// remapping them through the isomorphism — aggregate error reporting, and
// optional progress callbacks.
//
// The Compiler is the in-process implementation of the public
// clusched.Backend contract: Compile(ctx, Job) for one loop, Stream(ctx,
// jobs) for a batch consumed incrementally (clusched.Collect is the ordered
// collect over it). The remote Client implements the same contract over
// HTTP, so everything above this package — the public clusched API, the
// experiments, the cmd tools — submits Jobs and consumes Outcomes without
// caring where the compilation runs.
package driver

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/telemetry"
)

// Job is one compilation request: a loop, a machine and pipeline options.
type Job struct {
	Graph   *ddg.Graph
	Machine machine.Config
	Opts    pipeline.Options
	// Trace, when non-nil, receives the job's execution spans (overriding
	// the engine-wide Config.Trace). Tracing is an observation detail: it
	// is no part of the job's cache identity (keyFor, JobKey), so traced
	// and untraced submissions share results.
	Trace *telemetry.Trace
}

// Outcome is the result of one Job. Exactly one of Result and Err is
// non-nil; CacheHit reports whether the outcome was served from the cache.
type Outcome struct {
	Job      Job
	Result   *pipeline.Result
	Err      error
	CacheHit bool
	// Elapsed is the wall time of the real compilation that produced this
	// outcome; zero for outcomes served from the cache, the store or an
	// in-flight duplicate. The service's slow-compilation log keys off it.
	Elapsed time.Duration
}

// Progress observes batch completion: done jobs out of total. Callbacks are
// serialized and arrive with strictly increasing done counts, ending at
// done == total; they must not block for long, as they are on the workers'
// completion path.
type Progress func(done, total int)

// DefaultCacheSize bounds the result cache when Config.CacheSize is zero:
// large enough to hold every (loop, config, mode) pair of a full paper
// evaluation (~30 suite runs of the 678-loop workload).
const DefaultCacheSize = 1 << 15

// Store is a second-level result cache under the in-memory LRU, the hook
// the serving layer uses for persistence (internal/service.DiskCache). The
// Compiler consults Load on every LRU miss and calls Save after every
// fresh compilation, both outside its lock; implementations must be safe
// for concurrent use and are encouraged to write behind (Save must not
// block on I/O). Context cancellation errors are never offered to Save.
type Store interface {
	// Load returns the stored outcome for the job (keyed on JobKey), result
	// or compilation error (neither is a miss), and whether it was present.
	// JobKey is canonical under graph isomorphism: a result whose Loop is
	// a renamed/reordered sibling of j.Graph is remapped onto j.Graph
	// before it is served; one for j.Graph's own presentation is
	// served as loaded when its Loop is j.Graph itself, and remapped like a
	// sibling's otherwise.
	Load(j Job) (res *pipeline.Result, cerr error, ok bool)
	// Save records a freshly compiled outcome for the job.
	Save(j Job, res *pipeline.Result, cerr error)
}

// Config parameterizes a Compiler. The zero value is ready to use:
// GOMAXPROCS workers and a DefaultCacheSize-entry cache.
type Config struct {
	// Workers bounds one Stream batch's concurrent jobs; ≤0 means
	// GOMAXPROCS. Real compilations across every batch and unary call
	// share the engine's compile budget of max(Workers, GOMAXPROCS) slots:
	// a compilation over budget waits for a slot, and aborts with ctx.Err()
	// if its context ends first.
	Workers int
	// CacheSize bounds the LRU result cache in entries; 0 means
	// DefaultCacheSize, negative disables caching entirely.
	CacheSize int
	// Progress, when non-nil, is called after every job a Stream batch
	// completes (cancelled jobs do not count).
	Progress Progress
	// Store, when non-nil, is the persistent second-level cache consulted
	// on LRU misses and populated after fresh compilations. It is ignored
	// when caching is disabled (CacheSize < 0).
	Store Store
	// Trace, when non-nil, records every job's execution into it: one span
	// per job on its worker's track (annotated with cache outcome and
	// queue wait), cache-lookup spans, and the pipeline's per-pass and
	// per-attempt spans underneath. Per-job Job.Trace overrides it. Nil
	// keeps the engine on the untraced fast path.
	Trace *telemetry.Trace
	// Registry, when non-nil, receives the engine's metric instruments
	// (compile-latency and II-attempt histograms, cache and per-strategy
	// counters). Instrument updates are single atomic operations; nil
	// skips them entirely.
	Registry *telemetry.Registry
}

// StrategyStats is the per-strategy slice of the cache accounting.
type StrategyStats struct {
	// Hits, Misses, StoreHits, SemanticHits and SemanticStoreHits mean the
	// same as in CacheStats, restricted to jobs compiled under one strategy.
	Hits, Misses, StoreHits         uint64
	SemanticHits, SemanticStoreHits uint64
}

// CacheStats reports result-cache effectiveness.
type CacheStats struct {
	// Hits counts lookups served from the in-memory cache or joined onto
	// an identical in-flight compilation; Misses counts actual
	// compilations. Both reset with ResetCache.
	Hits, Misses uint64
	// StoreHits counts lookups served from the persistent Store (they are
	// not included in Hits or Misses).
	StoreHits uint64
	// SemanticHits counts lookups whose exact fingerprint missed but whose
	// canonical form matched a cached result for an isomorphic loop, served
	// by remapping that result through the isomorphism, once its edges match.
	// SemanticStoreHits counts the same outcome against the persistent
	// Store. Neither is included in the exact counters.
	SemanticHits, SemanticStoreHits uint64
	// Entries is the current number of cached results.
	Entries int
	// Strategies breaks the same counters down by scheduling strategy
	// (keyed on the canonical strategy name). Nil when caching is disabled.
	Strategies map[string]StrategyStats
}

// HitRate returns the fraction of lookups served without compiling, in
// [0, 1]; 0 when nothing has been looked up.
func (s CacheStats) HitRate() float64 {
	served := s.Hits + s.StoreHits + s.SemanticHits + s.SemanticStoreHits
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// Compiler is a concurrent batch-compilation engine. It is safe for use by
// multiple goroutines; results for identical (graph, machine, options)
// keys are shared through the cache, so callers must treat returned
// Results as immutable.
type Compiler struct {
	workers  int
	progress Progress
	store    Store // nil when no persistent second level is configured

	// trace is the engine-wide default trace (Config.Trace); metrics the
	// registered instruments (nil without a Registry).
	trace   *telemetry.Trace
	metrics *engineMetrics

	// arenas lends compilations their scratch, so a steady-state
	// compilation allocates almost nothing per II attempt (a regrown arena
	// is some 500 allocations).
	arenas arena.Pool[pipeline.Arena]

	// budget is the engine's one bound on concurrent work: max(Workers,
	// GOMAXPROCS) slots, each held by a real compilation, which waits for
	// its slot. Its occupancy is 0 whenever nothing compiles.
	budget chan struct{}
	// inFlight counts the real compilations running right now, the gauge
	// behind InFlightCompiles.
	inFlight atomic.Int64

	mu sync.Mutex
	// cache holds one entry per exact key: a compilation in flight, which
	// identical jobs join, or a cached outcome, which for a successful
	// result is also in the canonical tier. Nil when caching is disabled.
	cache *resultCache
	// ledger holds the only job counters there are: one cell per answer,
	// bucketed by strategy name, written by do alone. CacheStats and the
	// registry's two counter families are read-outs of it.
	ledger map[string]*[numAnswers]uint64
}

// answer names what answered a job: a cache tier, a compilation, or —
// answerNone — nothing, because the job's context ended first.
type answer uint8

const (
	answerNone answer = iota
	answerLRU
	answerFlight
	answerSemantic
	answerStore
	answerSemanticStore
	answerMiss
	answerUncached // compiled with caching disabled: a job, but no lookup
	numAnswers
)

// answers is the vocabulary every view of the ledger speaks: the result
// label of clusched_cache_lookups_total ("" for what is not a lookup) and
// the name of the job's "cache" span ("" where no tier found anything).
var answers = [numAnswers]struct{ label, span string }{
	answerLRU:           {"hit", "lru-hit"},
	answerFlight:        {"hit", "flight-join"},
	answerSemantic:      {"semantic_hit", "semantic-hit"},
	answerStore:         {"store_hit", "store-hit"},
	answerSemanticStore: {"semantic_store_hit", "semantic-store-hit"},
	answerMiss:          {"miss", ""},
}

// cached reports whether a cache tier answered — the answers with a span.
func (a answer) cached() bool { return answers[a].span != "" }

// engineMetrics is the engine's observed instruments, registered when
// Config.Registry is provided: compileSeconds observes the wall time of
// real (non-cached) compilations; iiAttempts their II ladder length (1 +
// tallied II increases, so skip-ahead-proven intervals count).
type engineMetrics struct {
	compileSeconds *telemetry.Histogram
	iiAttempts     *telemetry.Histogram
}

// registerMetrics creates the engine's instruments in reg. Everything but
// the two histograms is read at exposition time from where it already
// lives: the ledger and the in-flight gauge.
func (c *Compiler) registerMetrics(reg *telemetry.Registry) {
	c.metrics = &engineMetrics{
		compileSeconds: reg.NewHistogram("clusched_compile_seconds",
			"Wall time of real (non-cached) compilations, in seconds.",
			telemetry.ExponentialBuckets(0.0005, 2, 16)),
		iiAttempts: reg.NewHistogram("clusched_ii_attempts",
			"II attempts per compilation (1 + tallied II increases; skip-ahead-proven intervals count).",
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
	}
	reg.NewCounterVecFunc("clusched_cache_lookups_total",
		"Result-cache lookups by outcome.", "result",
		func() map[string]uint64 {
			return c.readLedger(func(_ string, a answer) string { return answers[a].label })
		})
	reg.NewCounterVecFunc("clusched_jobs_total",
		"Jobs served by scheduling strategy.", "strategy",
		func() map[string]uint64 {
			return c.readLedger(func(strategy string, _ answer) string { return strategy })
		})
	reg.NewGaugeFunc("clusched_inflight_compiles",
		"Real (non-cached) compilations running right now.",
		func() float64 { return float64(c.inFlight.Load()) })
	reg.NewGaugeFunc("clusched_max_inflight",
		"The engine's compile budget: slots for real compilations.",
		func() float64 { return float64(cap(c.budget)) })
}

// readLedger sums the ledger's non-zero cells by the series each belongs
// to ("" for none) — a labelled counter family as the registry reads it.
func (c *Compiler) readLedger(series func(strategy string, a answer) string) map[string]uint64 {
	out := make(map[string]uint64)
	c.mu.Lock()
	defer c.mu.Unlock()
	for strategy, cells := range c.ledger {
		for a, n := range cells {
			if s := series(strategy, answer(a)); s != "" && n > 0 {
				out[s] += n
			}
		}
	}
	return out
}

// New builds a Compiler from the config.
func New(cfg Config) *Compiler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	c := &Compiler{workers: w, progress: cfg.Progress, trace: cfg.Trace,
		budget: make(chan struct{}, max(w, runtime.GOMAXPROCS(0))),
		ledger: make(map[string]*[numAnswers]uint64)}
	if cfg.Registry != nil {
		c.registerMetrics(cfg.Registry)
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	if size > 0 {
		c.cache = newCache(size)
		c.store = cfg.Store
	}
	return c
}

// cacheKey identifies a compilation in the exact tier: graph fingerprint,
// canonical machine key and the exact option set. The fingerprint is a
// hash, not an identity: a cache entry is served only to a job whose graph
// is ddg.Equal to the entry's.
type cacheKey struct {
	graph   uint64
	machine string
	opts    pipeline.Options
}

// machineKey canonicalizes a machine config for cache keying. The name
// alone is not enough for heterogeneous machines, whose FU matrix is not
// part of the name; the matrix is encoded explicitly, entry by entry, for
// the same reason JobKey never uses %v — Go's slice formatting is not a
// stable serialization format, and a change to it would silently remap
// every heterogeneous key in the persistent store.
func machineKey(m machine.Config) string {
	if m.Hetero == nil {
		return m.Name
	}
	var sb strings.Builder
	sb.WriteString(m.Name)
	sb.WriteString(";het=")
	for k, row := range m.Hetero {
		if k > 0 {
			sb.WriteByte('|')
		}
		for cl, n := range row {
			if cl > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(n))
		}
	}
	return sb.String()
}

// classKey names an isomorphism class of the canonical tier: the loop's
// canonical fingerprint, with the machine and options of its exact key.
// Every loop compiles in its canonical presentation, so every member of a
// class holds a remap of one schedule, and one result answers for the
// class (pipeline.RemapResult's edge check refuses a Sum collision).
type classKey struct {
	canon   uint64
	machine string
	opts    pipeline.Options
}

// keyFor returns a job's exact key, the identity of the first in-memory
// tier. The strategy is canonicalized so the default ("") and its explicit
// name share one cache/dedup identity, matching JobKey.
func keyFor(j Job) cacheKey {
	opts := j.Opts
	opts.Strategy = opts.StrategyName()
	return cacheKey{graph: j.Graph.Fingerprint(), machine: machineKey(j.Machine), opts: opts}
}

// jobKeyVersion stamps the JobKey format. Bump it when the encoding below
// changes shape — stale store entries then miss instead of aliasing.
// v3 replaced the exact graph fingerprint with the canonical (isomorphism-
// invariant) fingerprint, so renamed/reordered presentations of one loop
// share a store entry. v4 keeps the format: the labeling behind the
// canonical fingerprint changed (partition refinement picks a different
// winning labeling than the hash-rank refinement did), so every graph's
// fingerprint moved and v3 entries must miss rather than sit unreachable
// under a current-looking key. v5 keeps the format: the loop graph's
// ASAP/ALAP timing became the scheduler's (every positive-latency edge
// relaxed in topological order, up to four passes), which moves a few uas
// schedules, so v4 entries must miss rather than answer with the old ones.
// v6 keeps the format: every loop is compiled in its topological-canonical
// presentation (ddg.Presentation), which moves about a third of the
// schedules, so v5 entries must miss rather than answer with the old ones.
// v7 keeps the format: moddist deals each operation only onto clusters with
// a unit of its class, which moves moddist results on machines whose
// clusters lack a class of unit, so v6 entries must miss. v8 keeps the
// format: an attempt below its placement's recurrence bound is tallied as
// a recurrence failure, which moves a few IIIncreases, so v7 entries must
// miss.
const jobKeyVersion = "v8"

// JobKey returns the job's content-addressed cache identity as a string:
// the format version, the canonical graph fingerprint, the canonical
// machine key, the strategy, and every Options field encoded explicitly,
// field by field. The encoding is deliberately not derived from the struct
// (no reflection, no %+v): renaming or reordering an Options field cannot
// silently change every key and invalidate the persistent store. Adding a
// field DOES require extending this function (and the golden-key test
// pins the format so forgetting fails loudly).
//
// The graph component is CanonicalFingerprint, equal for isomorphic
// graphs, so a store entry written for one presentation of a loop is found
// by every other; the Compiler detects the mismatch (Result.Loop vs
// j.Graph) and remaps. Canonical labeling runs once per graph (memoized),
// never on the II-attempt path; for a job the service streams in, it runs
// on the goroutine that decodes the job (Prepare).
func JobKey(j Job) string {
	o := j.Opts
	b := func(v bool) byte {
		if v {
			return '1'
		}
		return '0'
	}
	return fmt.Sprintf("%s|c=%016x|m=%s|strat=%s|rep=%c|lrep=%c|lat0=%c|macro=%c|maxii=%d|noreg=%c|ver=%c",
		jobKeyVersion, j.Graph.CanonicalFingerprint(), machineKey(j.Machine), o.StrategyName(),
		b(o.Replicate), b(o.LengthReplicate), b(o.ZeroBusLatency), b(o.UseMacroReplication),
		o.MaxII, b(o.IgnoreRegisterPressure), b(o.VerifySchedules))
}

// Compile compiles one job through the cache. It is the unary half of the
// backend contract (Stream is the batch half): the compilation aborts with
// ctx.Err() at the next II attempt once the context is done, and aborted
// outcomes are never cached.
func (c *Compiler) Compile(ctx context.Context, j Job) (*pipeline.Result, error) {
	out := c.do(ctx, j, "compile", time.Now())
	return out.Result, out.Err
}

// Prepare labels the job's loop (ddg.Graph.CanonicalForm, memoized) for a
// decoder about to hand the job to a Stream, so that the labeling runs on
// the decoding goroutine while the workers compile the jobs before it. It
// leaves the loop alone when the exact tier holds the job's key, since an
// exact hit never reads the labeling. Prepare changes no result and is safe
// to run concurrently with the job's own serve.
func (c *Compiler) Prepare(j Job) {
	if c.cache != nil {
		key := keyFor(j)
		c.mu.Lock()
		_, held := c.cache.byKey[key]
		c.mu.Unlock()
		if held {
			return
		}
	}
	j.Graph.CanonicalForm()
}

// ctxErr reports whether err is a context cancellation or deadline error —
// an outcome that describes the caller's patience, not the job, and so
// must never be cached or shared.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// do serves one job and is the engine's one accounting point: whatever
// serve answers is booked here, once, after the answer exists — a cell of
// the ledger, and on the job's trace (Job.Trace, falling back to the
// engine-wide Config.Trace) a "cache" span named for the tier that answered
// inside a "job" span on the named track, annotated with the wait since
// enqueued. A job whose context ended first (answerNone) is booked as
// nothing.
func (c *Compiler) do(ctx context.Context, j Job, track string, enqueued time.Time) Outcome {
	tr := j.Trace
	if tr == nil {
		tr = c.trace
	}
	tid, start := tr.Track(track), tr.Now()
	val, a, elapsed := c.serve(ctx, j, tr, track)
	out := Outcome{Job: j, Result: val.res, Err: val.err, CacheHit: a.cached(), Elapsed: elapsed}
	strategy := j.Opts.StrategyName()
	if a != answerNone {
		c.mu.Lock()
		cells := c.ledger[strategy]
		if cells == nil {
			cells = new([numAnswers]uint64)
			c.ledger[strategy] = cells
		}
		cells[a]++
		c.mu.Unlock()
	}
	if tr == nil {
		return out
	}
	if a.cached() {
		tr.Span(tid, "cache", answers[a].span, start)
	}
	wait := max(start-tr.At(enqueued), 0)
	name := "job"
	if j.Graph != nil {
		name = j.Graph.Name
	}
	args := make([]telemetry.Arg, 0, 5)
	args = append(args,
		telemetry.Arg{Key: "machine", Val: j.Machine.Name},
		telemetry.Arg{Key: "strategy", Val: strategy},
		telemetry.Arg{Key: "cached", Val: out.CacheHit},
		telemetry.Arg{Key: "queue_wait_ms", Val: float64(wait.Microseconds()) / 1e3})
	if out.Err != nil {
		args = append(args, telemetry.Arg{Key: "error", Val: out.Err.Error()})
	}
	tr.Span(tid, "job", name, start, args...)
	return out
}

// serve answers one job from the first tier that can, in order: the exact
// LRU entry; an identical job's in-flight compilation, joined rather than
// repeated; the canonical tier; and, as the leader of a flight of its own,
// the persistent Store and then a real compilation. The exact tier is a
// hash bucket plus an equality check: an entry or flight under the job's
// fingerprint answers only if its graph is ddg.Equal to the job's, and one
// that is not — a collision — leaves the job to a compilation of its own,
// which the entry keeps. The canonical tier is asked once, after the exact
// probe has missed and outside the lock, and the exact probe is then
// repeated, so a job never leads a flight for something already cached or
// already in flight. serve books nothing: it returns the value, which tier
// answered, and the wall time of the compilation if there was one.
func (c *Compiler) serve(ctx context.Context, j Job, tr *telemetry.Trace, track string) (cacheValue, answer, time.Duration) {
	if err := ctx.Err(); err != nil {
		return cacheValue{err: err}, answerNone, 0
	}
	if c.cache == nil {
		return c.compileAlone(ctx, j, tr, track, answerUncached)
	}
	key := keyFor(j)
	for semTried := false; ; {
		c.mu.Lock()
		if val, w, g, ok := c.cache.lookup(key); ok {
			c.mu.Unlock()
			if !ddg.Equal(g, j.Graph) {
				return c.compileAlone(ctx, j, tr, track, answerMiss)
			}
			if w == nil {
				return val, answerLRU, 0
			}
			if val, a, retry := join(ctx, w); !retry {
				return val, a, 0
			}
			continue
		}
		// Outside any flight: a semantic hit is the common answer for a
		// fresh clone, and needs none. A job the tier cannot answer retries
		// the exact probe — the entry may have landed meanwhile — and then
		// leads.
		if !semTried {
			c.mu.Unlock()
			semTried = true
			if val, a := c.semantic(j, key); a != answerNone {
				return val, a, 0
			}
			continue
		}
		slot := c.cache.begin(key, j.Graph)
		c.mu.Unlock()
		return c.lead(ctx, j, slot, tr, track)
	}
}

// compileAlone answers the job by a compilation that no cache entry keeps:
// every job when caching is disabled, booked as answerUncached, and a job
// whose exact key holds another loop's entry, booked as answerMiss.
func (c *Compiler) compileAlone(ctx context.Context, j Job, tr *telemetry.Trace, track string, a answer) (cacheValue, answer, time.Duration) {
	val, elapsed := c.compileTimed(ctx, j, tr, track)
	if ctxErr(val.err) {
		return val, answerNone, elapsed
	}
	return val, a, elapsed
}

// join waits for an identical job's flight to land and shares its answer.
// A follower whose own context ends first is answered by nothing; one whose
// leader was cancelled — under the leader's context, not this caller's —
// must retry and compete to lead.
func join(ctx context.Context, w *waiters) (val cacheValue, a answer, retry bool) {
	select {
	case <-w.done:
	case <-ctx.Done():
		return cacheValue{err: ctx.Err()}, answerNone, false
	}
	if ctxErr(w.val.err) {
		return cacheValue{}, answerNone, true
	}
	return w.val, answerFlight, false
}

// semantic is the canonical tier: it labels the job's loop and, if its
// class is resident, answers with the class's result relabeled onto the
// job's graph (pipeline.RemapResult: an edge match, then the compile's own
// mover), which it installs under the job's own exact key.
func (c *Compiler) semantic(j Job, key cacheKey) (cacheValue, answer) {
	canon := j.Graph.CanonicalFingerprint()
	c.mu.Lock()
	cl, ok := c.cache.classes[classKey{canon, key.machine, key.opts}]
	c.mu.Unlock()
	if !ok {
		return cacheValue{}, answerNone
	}
	res, err := pipeline.RemapResult(cl.res, j.Graph, j.Opts)
	if err != nil {
		return cacheValue{}, answerNone
	}
	val := cacheValue{res: res}
	c.mu.Lock()
	c.cache.install(key, j.Graph, val, canon)
	c.mu.Unlock()
	return val, answerSemantic
}

// lead answers the job as the leader of the flight pending in slot: from
// the Store if it has the job, else by the engine's one compile call. The
// answer lands in the cache — failures too: an unschedulable loop costs a
// full II sweep, the most expensive outcome there is — the followers are
// woken, and a fresh compilation is offered to the Store. A cancelled
// compilation is nobody's answer: it is neither cached nor saved.
func (c *Compiler) lead(ctx context.Context, j Job, slot int32, tr *telemetry.Trace, track string) (cacheValue, answer, time.Duration) {
	val, a := c.fromStore(j)
	var elapsed time.Duration
	if a == answerNone {
		if val, elapsed = c.compileTimed(ctx, j, tr, track); !ctxErr(val.err) {
			a = answerMiss
		}
	}
	canon := j.Graph.CanonicalFingerprint() // labeled by semantic already
	c.mu.Lock()
	var w *waiters
	if a != answerNone {
		w = c.cache.land(slot, val, canon)
	} else {
		w = c.cache.abandon(slot)
	}
	c.mu.Unlock()
	if w != nil {
		w.val = val
		close(w.done)
	}
	if a == answerMiss && c.store != nil {
		c.store.Save(j, val.res, val.err)
	}
	return val, a, elapsed
}

// fromStore asks the persistent Store. A stored result under the canonical
// JobKey is served as loaded only when its Loop is j.Graph itself, as the
// Store returns it for the job's own presentation. Any other Loop — an
// isomorphic sibling's, or a parsed copy of this graph from an entry whose
// header fingerprint this build does not recognise — is remapped onto
// j.Graph, and a failed remap is no answer. A disk entry was proven once,
// as it was decoded (wire's sched.Prove), and is not proven again.
func (c *Compiler) fromStore(j Job) (cacheValue, answer) {
	if c.store == nil {
		return cacheValue{}, answerNone
	}
	res, cerr, ok := c.store.Load(j)
	switch {
	case !ok || res == nil && cerr == nil:
		return cacheValue{}, answerNone
	case cerr != nil || res.Loop == j.Graph:
		return cacheValue{res: res, err: cerr}, answerStore
	}
	remapped, err := pipeline.RemapResult(res, j.Graph, j.Opts)
	if err != nil {
		return cacheValue{}, answerNone
	}
	return cacheValue{res: remapped}, answerSemanticStore
}

// compileTimed wraps compile with the wall clock and, when metrics are
// registered, feeds the latency and II-attempt histograms (aborted
// compilations are not observed — they describe the caller's patience,
// not the job).
func (c *Compiler) compileTimed(ctx context.Context, j Job, tr *telemetry.Trace, track string) (cacheValue, time.Duration) {
	t0 := time.Now()
	res, err := c.compile(ctx, j, tr, track)
	elapsed := time.Since(t0)
	if c.metrics != nil && !ctxErr(err) {
		c.metrics.compileSeconds.Observe(elapsed.Seconds())
		if res != nil {
			attempts := 1
			for _, n := range res.IIIncreases {
				attempts += n
			}
			c.metrics.iiAttempts.Observe(float64(attempts))
		}
	}
	return cacheValue{res: res, err: err}, elapsed
}

// compile runs one real compilation on a recycled scratch arena, holding
// a slot of the budget for it. Waiting for the slot is an ordinary
// cancellation point: an aborted wait is ctx.Err(), which the cache layer
// refuses to cache, share or save.
func (c *Compiler) compile(ctx context.Context, j Job, tr *telemetry.Trace, track string) (*pipeline.Result, error) {
	select {
	case c.budget <- struct{}{}:
		defer func() { <-c.budget }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)
	a := c.arenas.Get()
	res, err := pipeline.Search(ctx, j.Graph, j.Machine, j.Opts, pipeline.SearchConfig{
		Arena: a,
		Trace: tr,
		Track: track,
	})
	c.arenas.Put(a)
	return res, err
}

// Stream compiles the batch on the worker pool and yields each outcome the
// moment it is ready, tagged with the index of its job — the streaming half
// of the backend contract. Every job yields exactly once: when the context
// is cancelled mid-batch, already-finished jobs keep their outcomes
// (identical to what a serial run would have produced, thanks to per-loop
// determinism and the cache) and every remaining job yields an outcome
// carrying ctx.Err(). Jobs are dispatched in index order, so the successful
// outcomes of a cancelled stream form a prefix plus at most Workers
// in-flight stragglers; yield order within the batch follows completion, not
// submission. Progress callbacks fire only for jobs that actually ran.
// Stopping the iteration early cancels the remaining work.
func (c *Compiler) Stream(ctx context.Context, jobs []Job) iter.Seq2[int, Outcome] {
	return func(yield func(int, Outcome) bool) {
		g := NewGate(len(jobs))
		for range jobs {
			g.Admit()
		}
		g.Close()
		c.stream(ctx, jobs, g, yield)
	}
}

// Gate is the admission queue of a batch whose jobs are filled in while it
// streams: the stream's workers take job i off it once Admit has been
// called i+1 times, so the first jobs compile while the caller is still
// decoding the rest, and the stream ends only once the gate is closed. A
// caller that will not admit every job cancels the stream's context before
// Close; the jobs it never admitted yield the cancellation, as the unserved
// jobs of any cancelled stream do.
type Gate struct {
	admitted chan int
	// n counts the admitted jobs. Only the admitter writes it; the stream
	// reads it once every worker has seen the gate closed.
	n int
}

// NewGate returns a Gate with nothing admitted for a batch of n jobs.
func NewGate(n int) *Gate { return &Gate{admitted: make(chan int, n)} }

// Admit admits the next job; it may be called once per job of the batch.
// The caller's writes to that job happen before any worker reads it.
func (g *Gate) Admit() {
	g.admitted <- g.n
	g.n++
}

// Close ends admission.
func (g *Gate) Close() { close(g.admitted) }

// StreamAdmitted is (*Compiler).Stream over a batch whose jobs g admits one
// by one: jobs[i] must be written before the Admit that admits it, and not
// afterwards. The iteration runs once, as it empties g.
func StreamAdmitted(c *Compiler, ctx context.Context, jobs []Job, g *Gate) iter.Seq2[int, Outcome] {
	return func(yield func(int, Outcome) bool) { c.stream(ctx, jobs, g, yield) }
}

// stream yields the outcome of every job of the batch g admits.
func (c *Compiler) stream(ctx context.Context, jobs []Job, g *Gate, yield func(int, Outcome) bool) {
	if len(jobs) == 0 {
		return
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers := min(c.workers, len(jobs))
	type indexed struct {
		i   int
		out Outcome
	}
	var (
		// results is unbuffered on purpose: a worker hands its outcome to
		// the consumer before taking more work, so the first yield happens
		// while the rest of the batch is still compiling (the streaming
		// guarantee the conformance suite pins) instead of the pool racing
		// ahead of a slow consumer. A worker that finds the gate closed
		// sends index -1 and exits.
		results = make(chan indexed)
		progMu  sync.Mutex
		done    int
	)
	// Every job of the batch is enqueued now; a job's queue wait is the gap
	// until a worker picks it up. Each worker owns one trace track: its
	// jobs are sequential, so they share a lane in the viewer, while
	// concurrent workers render side by side.
	enqueued := time.Now()
	for w := 0; w < workers; w++ {
		go func(track string) {
			for i := range g.admitted {
				out := Outcome{Job: jobs[i], Err: sctx.Err()}
				if out.Err == nil {
					out = c.do(sctx, jobs[i], track, enqueued)
					if c.progress != nil && !ctxErr(out.Err) {
						progMu.Lock()
						done++
						c.progress(done, len(jobs))
						progMu.Unlock()
					}
				}
				results <- indexed{i, out}
			}
			results <- indexed{i: -1}
		}(fmt.Sprintf("worker-%02d", w))
	}
	// The drain runs on every early exit from the loop below — yield
	// returning false, a consumer panic, or runtime.Goexit — so workers
	// blocked on the unbuffered send always wind down (the cancel aborts
	// their in-flight compilations first, and stamps what the gate still
	// admits).
	live := workers
	defer func() {
		cancel()
		if live > 0 {
			go func() {
				for live > 0 {
					if (<-results).i < 0 {
						live--
					}
				}
			}()
		}
	}()
	for live > 0 {
		r := <-results
		if r.i < 0 {
			live--
		} else if !yield(r.i, r.out) {
			return
		}
	}
	// Every worker has seen the gate closed, so g.n is final: each job the
	// gate never admitted yields the cancellation, and is not read, as it
	// may still be written.
	if g.n < len(jobs) {
		cancel()
		for i := g.n; i < len(jobs); i++ {
			if !yield(i, Outcome{Err: sctx.Err()}) {
				return
			}
		}
	}
}

// AggregateError builds the batch-level error for a complete outcome set:
// nil when every job succeeded, otherwise a *BatchError listing every
// failure in job order.
func AggregateError(outcomes []Outcome) error {
	var failed []JobError
	for i := range outcomes {
		if outcomes[i].Err != nil {
			je := JobError{Index: i, Err: outcomes[i].Err}
			if g := outcomes[i].Job.Graph; g != nil {
				je.Loop = g.Name
			}
			je.Machine = outcomes[i].Job.Machine.Name
			failed = append(failed, je)
		}
	}
	if failed != nil {
		return &BatchError{Total: len(outcomes), Failed: failed}
	}
	return nil
}

// CacheStats returns a snapshot of cache effectiveness, read out of the
// ledger.
func (c *Compiler) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s CacheStats
	if c.cache == nil {
		return s
	}
	s.Entries = c.cache.n
	if len(c.ledger) > 0 {
		s.Strategies = make(map[string]StrategyStats, len(c.ledger))
	}
	for name, n := range c.ledger {
		st := StrategyStats{
			Hits:              n[answerLRU] + n[answerFlight],
			Misses:            n[answerMiss],
			StoreHits:         n[answerStore],
			SemanticHits:      n[answerSemantic],
			SemanticStoreHits: n[answerSemanticStore],
		}
		s.Strategies[name] = st
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.StoreHits += st.StoreHits
		s.SemanticHits += st.SemanticHits
		s.SemanticStoreHits += st.SemanticStoreHits
	}
	return s
}

// InFlightCompiles reports how many real (non-cached) compilations are
// running right now and the size of the budget they share — the
// backpressure signal behind the service's inflight_compiles and
// max_inflight stats.
func (c *Compiler) InFlightCompiles() (running, budget int) {
	return int(c.inFlight.Load()), cap(c.budget)
}

// ResetCache drops every cached result and zeroes the hit/miss counters,
// so benchmarks measure real work. A flight in progress still lands.
func (c *Compiler) ResetCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ledger = make(map[string]*[numAnswers]uint64)
	if c.cache != nil {
		c.cache.reset()
	}
}

// JobError records one failed job of a batch.
type JobError struct {
	// Index is the job's position in the batch.
	Index int
	// Loop and Machine identify the compilation.
	Loop, Machine string
	// Err is the underlying compilation error.
	Err error
}

// Error implements error.
func (e *JobError) Error() string {
	return fmt.Sprintf("job %d (%s on %s): %v", e.Index, e.Loop, e.Machine, e.Err)
}

// Unwrap exposes the underlying compilation error.
func (e *JobError) Unwrap() error { return e.Err }

// BatchError aggregates every failed job of a batch (see AggregateError).
type BatchError struct {
	// Total is the batch size; Failed the failures in job order.
	Total  int
	Failed []JobError
}

// Error implements error. A BatchError with no failures renders too.
func (e *BatchError) Error() string {
	if len(e.Failed) == 0 {
		return fmt.Sprintf("driver: 0 of %d compilations failed", e.Total)
	}
	if len(e.Failed) == 1 {
		return fmt.Sprintf("driver: 1 of %d compilations failed: %v", e.Total, &e.Failed[0])
	}
	return fmt.Sprintf("driver: %d of %d compilations failed (first: %v)",
		len(e.Failed), e.Total, &e.Failed[0])
}
