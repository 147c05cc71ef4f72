package clusched

// The public surface: one canonical, context-first contract for "compile
// these loops", with where-it-runs as a swappable backend. The in-process
// engine (NewLocal), the remote service client (NewRemote) and the fleet
// (NewCluster) implement the same interface, so tools and experiments
// program against Backend and turn local-vs-remote into configuration; the
// three constructors are the only way to build one. Functional options cover
// both the per-job pipeline options (WithStrategy, WithReplication, …) and
// the backend construction knobs (WithWorkers, WithCacheSize, WithTimeout,
// …); NewOptions builds the Options struct, which a literal spells too.

import (
	"context"
	"fmt"
	"iter"
	"net/http"
	"time"

	"clusched/internal/driver"
)

// Backend is the canonical compilation contract: one unary call and one
// streaming batch call. It is implemented in-process by *Compiler
// (NewLocal) and remotely by *Client (NewRemote); both return bit-identical
// Results for the same jobs — the remote path re-verifies every schedule on
// decode — so callers can swap backends freely.
type Backend interface {
	// Compile compiles one job. The compilation honours ctx: once it is
	// done, the job aborts with ctx.Err() at the backend's next
	// cancellation point.
	Compile(ctx context.Context, job CompileJob) (*Result, error)
	// Stream compiles a batch and yields each outcome the moment it
	// finishes, tagged with the index of its job in the batch — yield
	// order follows completion, not submission. Every job yields exactly
	// once: cancelling ctx mid-stream leaves the finished outcomes intact
	// and stamps every remaining job's outcome with the cancellation.
	// After cancel returns a backend yields at most W more successes,
	// outcomes finished on their way to the caller: W is the worker count
	// for the local engine (each worker may hold one), and 0 for the remote
	// client and the fleet, which stamp an outcome that reaches them after
	// the cancel. Stopping the iteration early abandons the remaining
	// work. For deterministic index-ordered results, collect with Collect.
	Stream(ctx context.Context, jobs []CompileJob) iter.Seq2[int, CompileOutcome]
}

// Both backends satisfy the contract — this is the compile-time pin behind
// the conformance suite.
var (
	_ Backend = (*Compiler)(nil)
	_ Backend = (*Client)(nil)
)

// Progress observes batch completion on a local backend (see WithProgress).
type Progress = driver.Progress

// settings is the merged configuration the functional options mutate; each
// constructor reads the part it understands.
type settings struct {
	opts    Options
	engine  driver.Config
	client  clientConfig
	cluster clusterConfig
}

// clientConfig collects the remote-backend knobs.
type clientConfig struct {
	httpClient *http.Client
	timeout    time.Duration
	hasTimeout bool
}

// clusterConfig collects the fleet-backend knobs (see NewCluster).
type clusterConfig struct {
	hedge          time.Duration
	hasHedge       bool
	nodeInFlight   int
	healthInterval time.Duration
	hasHealth      bool
}

// optionScope classifies where an Option applies, so a constructor given
// an option from the wrong group can reject it loudly instead of silently
// compiling the wrong variant.
type optionScope uint8

const (
	scopeJob optionScope = 1 << iota
	scopeEngine
	scopeClient
	scopeCluster
)

// String names the scope's home constructor for the misuse panic.
func (sc optionScope) String() string {
	switch sc {
	case scopeJob:
		return "a compilation option (use NewOptions and set CompileJob.Opts)"
	case scopeEngine:
		return "a local-engine option (use NewLocal)"
	case scopeClient:
		return "a remote-client option (use NewRemote or NewCluster)"
	case scopeCluster:
		return "a fleet option (use NewCluster)"
	}
	return "an unknown option"
}

// Option configures NewOptions, NewLocal, NewRemote or NewCluster. Options
// are grouped by what they configure — compilation options (WithStrategy,
// WithReplication, WithLengthReplication, WithZeroBusLatency,
// WithMacroReplication, WithMaxII, WithIgnoreRegisterPressure,
// WithVerification), local-engine construction (WithWorkers, WithCacheSize,
// WithProgress, WithTrace), remote-client construction (WithHTTPClient,
// WithTimeout — for NewRemote and NewCluster alike) and the fleet
// (WithHedge, WithNodeInFlight, WithHealthInterval). Passing an option to a
// constructor outside its group panics with the option's name and where it
// belongs: NewLocal(WithReplication(true)) would otherwise silently compile
// every job without replication, which is far worse than a loud
// construction failure.
type Option struct {
	name  string
	scope optionScope
	apply func(*settings)
}

// applySettings runs the options through their checks for one constructor.
func applySettings(constructor string, allowed optionScope, opts []Option) settings {
	var s settings
	for _, o := range opts {
		if o.scope&allowed == 0 {
			panic(fmt.Sprintf("clusched: %s does not accept %s — it is %s",
				constructor, o.name, o.scope))
		}
		o.apply(&s)
	}
	return s
}

func jobOption(name string, f func(*settings)) Option {
	return Option{name: name, scope: scopeJob, apply: f}
}

func engineOption(name string, f func(*settings)) Option {
	return Option{name: name, scope: scopeEngine, apply: f}
}

func clientOption(name string, f func(*settings)) Option {
	return Option{name: name, scope: scopeClient, apply: f}
}

func clusterOption(name string, f func(*settings)) Option {
	return Option{name: name, scope: scopeCluster, apply: f}
}

// WithStrategy selects the scheduling strategy by registry name (see
// Strategies): "paper", "unified", "uas" or "moddist".
func WithStrategy(name string) Option {
	return jobOption("WithStrategy", func(s *settings) { s.opts.Strategy = name })
}

// WithReplication toggles the §3 instruction-replication pass (the paper's
// contribution).
func WithReplication(on bool) Option {
	return jobOption("WithReplication", func(s *settings) { s.opts.Replicate = on })
}

// WithLengthReplication toggles the §5.1 schedule-length replication
// extension (implies nothing about WithReplication; enable both for the
// paper's combined variant).
func WithLengthReplication(on bool) Option {
	return jobOption("WithLengthReplication", func(s *settings) { s.opts.LengthReplicate = on })
}

// WithZeroBusLatency schedules with zero-latency buses that still consume
// bandwidth: the Fig. 12 upper bound.
func WithZeroBusLatency(on bool) Option {
	return jobOption("WithZeroBusLatency", func(s *settings) { s.opts.ZeroBusLatency = on })
}

// WithMacroReplication swaps in the §5.2 macro-node replication heuristic.
func WithMacroReplication(on bool) Option {
	return jobOption("WithMacroReplication", func(s *settings) { s.opts.UseMacroReplication = on })
}

// WithMaxII overrides the II search bound (0 = automatic).
func WithMaxII(n int) Option {
	return jobOption("WithMaxII", func(s *settings) { s.opts.MaxII = n })
}

// WithIgnoreRegisterPressure disables the register-file feasibility check.
func WithIgnoreRegisterPressure(on bool) Option {
	return jobOption("WithIgnoreRegisterPressure", func(s *settings) { s.opts.IgnoreRegisterPressure = on })
}

// WithVerification re-checks every accepted schedule against the dependence
// and resource constraints (cheap; on by default in the CLIs).
func WithVerification(on bool) Option {
	return jobOption("WithVerification", func(s *settings) { s.opts.VerifySchedules = on })
}

// WithWorkers bounds a local backend's concurrent compilations (≤0 =
// GOMAXPROCS).
func WithWorkers(n int) Option {
	return engineOption("WithWorkers", func(s *settings) { s.engine.Workers = n })
}

// WithCacheSize bounds a local backend's in-memory result cache in entries
// (0 = the engine default, negative disables caching).
func WithCacheSize(n int) Option {
	return engineOption("WithCacheSize", func(s *settings) { s.engine.CacheSize = n })
}

// WithProgress subscribes to a local backend's batch-completion callbacks.
func WithProgress(fn Progress) Option {
	return engineOption("WithProgress", func(s *settings) { s.engine.Progress = fn })
}

// Deprecated: WithSpeculation does nothing. Every compilation runs the one
// sequential II search; the speculative multi-II search this option once
// configured is gone. It stays a local-engine option only because the
// benchmark's speculation probe (bench/traced.go) still calls it; ROADMAP
// item 1 deletes that probe and this option together.
func WithSpeculation(k int) Option {
	return engineOption("WithSpeculation", func(*settings) {})
}

// WithTrace makes a local backend record every compilation into tr: job
// spans per worker, cache lookups, passes and II attempts. Tracing is an
// observation detail — results and cache identities are unchanged — and a
// nil tr keeps the engine on the allocation-free untraced path. Export
// the recording with tr.WriteJSON (Chrome trace-event format). Per-job
// traces can instead ride on CompileJob.Trace, which takes precedence.
func WithTrace(tr *Trace) Option {
	return engineOption("WithTrace", func(s *settings) { s.engine.Trace = tr })
}

// WithHTTPClient makes a remote backend use the given HTTP client (custom
// transport, proxy, TLS). The client's own Timeout should stay zero —
// per-call deadlines come from WithTimeout, and the streaming path must
// outlive any fixed budget.
func WithHTTPClient(hc *http.Client) Option {
	return clientOption("WithHTTPClient", func(s *settings) { s.client.httpClient = hc })
}

// WithTimeout bounds how long a remote backend waits on a server: each unary
// exchange (a blocking compile, stats, health) as a whole, and on an NDJSON
// stream — which itself lives as long as its batch — the wait for the hello
// and every later gap between two frames. 0 disables the bound; without this
// option NewRemote and NewCluster apply DefaultClientTimeout.
func WithTimeout(d time.Duration) Option {
	return clientOption("WithTimeout", func(s *settings) { s.client.timeout = d; s.client.hasTimeout = true })
}

// WithHedge controls a fleet backend's straggler hedging — the duplicate
// dispatch fired when a node stays silent on a run past the hedge delay:
// what it has not answered yet goes to a peer as well (first answer per job
// wins, the loser is cancelled; results are content-addressed and
// deterministic, so the duplicate can never change the answer). d > 0
// fixes the delay; 0 (the default) adapts it to a high percentile of the
// observed gaps between answers; d < 0 disables hedging.
func WithHedge(d time.Duration) Option {
	return clusterOption("WithHedge", func(s *settings) { s.cluster.hedge = d; s.cluster.hasHedge = true })
}

// WithNodeInFlight bounds a fleet backend's concurrent exchanges per node —
// runs in flight, each a sub-batch the node's worker pool serves as one
// ticket (≤0 = the cluster default).
func WithNodeInFlight(n int) Option {
	return clusterOption("WithNodeInFlight", func(s *settings) { s.cluster.nodeInFlight = n })
}

// WithHealthInterval paces a fleet backend's membership probes (jittered
// ±20%; 0 = the cluster default, negative disables probing).
func WithHealthInterval(d time.Duration) Option {
	return clusterOption("WithHealthInterval", func(s *settings) { s.cluster.healthInterval = d; s.cluster.hasHealth = true })
}

// NewOptions builds compilation Options functionally — the spelling of an
// Options literal that constructors share:
//
//	opts := clusched.NewOptions(
//		clusched.WithStrategy("paper"),
//		clusched.WithReplication(true),
//	)
func NewOptions(opts ...Option) Options {
	return applySettings("NewOptions", scopeJob, opts).opts
}

// NewLocal builds the in-process Backend: the concurrent batch engine with
// a bounded worker pool and a shared result cache. Engine-level options
// (WithWorkers, WithCacheSize, WithProgress, WithTrace) apply; job-level
// options ride on each CompileJob.
func NewLocal(opts ...Option) *Compiler {
	return driver.New(applySettings("NewLocal", scopeEngine, opts).engine)
}

// Collect drains b.Stream(ctx, jobs) into an index-aligned outcome slice:
// outcomes[i] is the outcome of jobs[i] no matter how the backend scheduled
// the work, so batch output is deterministic over any Backend. The error is
// nil when every job succeeded, otherwise a *BatchError aggregating every
// failure; outcomes is complete either way.
func Collect(ctx context.Context, b Backend, jobs []CompileJob) ([]CompileOutcome, error) {
	outcomes := make([]CompileOutcome, len(jobs))
	for i, out := range b.Stream(ctx, jobs) {
		if i >= 0 && i < len(outcomes) {
			outcomes[i] = out
		}
	}
	// A conforming backend yields every index exactly once; stamp any gap
	// so a misbehaving one surfaces as a typed batch error, not a nil
	// dereference three layers up.
	for i := range outcomes {
		if outcomes[i].Result == nil && outcomes[i].Err == nil {
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("clusched: backend yielded no outcome for job %d", i)
			}
			outcomes[i] = CompileOutcome{Job: jobs[i], Err: err}
		}
	}
	return outcomes, driver.AggregateError(outcomes)
}
