// Package service turns the batch-compilation engine into a long-lived
// compilation server: compilation-as-a-service. A Server wraps one shared
// driver.Compiler behind an asynchronous ticket API — Submit returns
// immediately with a ticket, whose batch starts streaming through the
// engine at once; admission control bounds the unfinished tickets
// (reject-with-retry-after beyond it), each ticket carries a deadline and
// can be cancelled, and Shutdown drains gracefully. A persistent on-disk
// result cache (DiskCache, plugged in under the engine's in-memory LRU via
// driver.Store) lets a restarted server answer warm traffic without
// recompiling anything. Batches run through the engine's outcome stream:
// every finished job is published to watchers (Watch, and the NDJSON
// stream in http.go) the moment it completes, so
// remote consumers see results incrementally instead of polling for the
// whole batch.
//
// The HTTP front end over this API lives in http.go (Server.Handler);
// cmd/clusched-serve binds it to a listener and the root package's Client
// speaks to it.
package service

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/driver"
	"clusched/internal/telemetry"
	"clusched/internal/wire"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// compile workers, 64 unfinished tickets, no deadline policy and no
// persistence.
type Config struct {
	// Workers bounds concurrent compilations inside a batch (driver
	// worker pool); ≤0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the engine's in-memory LRU (0 = driver default).
	CacheSize int
	// QueueDepth bounds the tickets admitted and not yet finished; ≤0
	// means 64. Submits beyond it are rejected with ErrQueueFull. Every
	// admitted ticket runs at once: real compilations beyond the engine's
	// compile budget of max(Workers, GOMAXPROCS) wait for a slot (/stats
	// max_inflight), the one bound on work.
	QueueDepth int
	// DefaultTimeout bounds a ticket's lifetime from submission when the
	// submitter does not set one; 0 means no deadline.
	DefaultTimeout time.Duration
	// Store is the persistent second-level result cache (see DiskCache);
	// nil disables persistence.
	Store driver.Store
	// TraceJobs records an execution trace for every ticket, as if each
	// submission had asked for one (SubmitOptions.Trace); traces are
	// served from GET /jobs/{id}/trace. Off by default — tracing is cheap
	// but not free, and per-ticket opt-in is the normal mode.
	TraceJobs bool
	// SlowCompile, when > 0, logs a warning for every real compilation
	// whose wall time reaches it (cache hits never trigger it).
	SlowCompile time.Duration
	// Logger receives the server's structured logs (ticket lifecycle,
	// slow compilations, HTTP access lines); nil discards them.
	Logger *slog.Logger
	// AccessLog emits one Logger line per HTTP request (method, path,
	// status, duration, request ID).
	AccessLog bool
}

// ErrShuttingDown rejects submissions during graceful drain.
var ErrShuttingDown = errors.New("service: shutting down")

// ErrQueueFull rejects submissions when QueueDepth tickets are unfinished.
type ErrQueueFull struct {
	// RetryAfter is the server's estimate of when capacity frees up.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("service: queue full, retry after %v", e.RetryAfter)
}

// State is a ticket's lifecycle position.
type State int

// Ticket states, in lifecycle order.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateCanceled
)

// String returns the wire name of the state.
func (s State) String() string {
	switch s {
	case StateQueued:
		return wire.StateQueued
	case StateRunning:
		return wire.StateRunning
	case StateDone:
		return wire.StateDone
	case StateCanceled:
		return wire.StateCanceled
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Status is a snapshot of one ticket.
type Status struct {
	ID    string
	State State
	// NumJobs is the batch size.
	NumJobs int
	// Created, Started and Finished are the lifecycle timestamps (zero
	// until reached).
	Created, Started, Finished time.Time
	// Deadline is the ticket's absolute lifetime bound (zero when the
	// ticket has none); pollers can cap their waiting against it.
	Deadline time.Time
	// Outcomes is set once the ticket finished (Done or Canceled —
	// completed outcomes survive cancellation), index-aligned with the
	// submitted jobs.
	Outcomes []driver.Outcome
	// Err is the aggregate batch error (nil when every job succeeded);
	// for canceled tickets it reports the cancellation.
	Err error
}

// Event is one job completion pushed to batch watchers: the job's index in
// the batch and its outcome, the moment the engine finished it.
type Event struct {
	Index   int
	Outcome driver.Outcome
}

// ticket is the server-side record behind a Status.
type ticket struct {
	id       string
	jobs     []driver.Job
	ctx      context.Context
	cancel   context.CancelCauseFunc
	created  time.Time
	deadline time.Time // zero when the ticket has no lifetime bound
	// trace is the ticket's execution trace (nil for untraced tickets);
	// its epoch is the submission instant, so the queued span starts at 0.
	trace *telemetry.Trace
	// release frees the deadline's timer; serve calls it when it ends.
	release context.CancelFunc
	// gate admits the ticket's jobs to the engine, each once it is filled
	// in, and is closed when admission is over. withdrawn, set before,
	// says admission was refused: the ticket is then forgotten, not
	// retired.
	gate      *driver.Gate
	withdrawn bool

	mu       sync.Mutex
	state    State
	started  time.Time
	finished time.Time
	err      error
	done     chan struct{} // closed when the ticket reaches Done/Canceled
	// outcomes holds each finished job's outcome at the job's index, and
	// order is the append-only completion log behind Watch: the finished
	// indices, in completion order. update, made when a watcher has caught
	// up and needs something to block on, is closed and dropped by the next
	// append, so watchers wait for "something new" without polling and an
	// unwatched ticket pays nothing.
	outcomes []driver.Outcome
	order    []int
	update   chan struct{}
}

// publish stores one finished job's outcome, logs its index and wakes
// every watcher.
func (t *ticket) publish(i int, out driver.Outcome) {
	t.mu.Lock()
	t.outcomes[i] = out
	t.order = append(t.order, i)
	if t.update != nil {
		close(t.update)
		t.update = nil
	}
	t.mu.Unlock()
}

// backlog returns the events logged from pos on (in buf's memory) and
// whether the ticket has reached a terminal state. Only a watcher that has
// caught up — nothing pending, not terminal — is also given the channel the
// next append closes.
func (t *ticket) backlog(pos int, buf []Event) (pending []Event, terminal bool, update <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pending = slices.Grow(buf[:0], len(t.order)-pos)
	for _, i := range t.order[pos:] {
		pending = append(pending, Event{Index: i, Outcome: t.outcomes[i]})
	}
	terminal = t.terminal()
	if len(pending) == 0 && !terminal {
		if t.update == nil {
			t.update = make(chan struct{})
		}
		update = t.update
	}
	return pending, terminal, update
}

// terminal reports whether the ticket is Done or Canceled; t.mu is held.
func (t *ticket) terminal() bool { return t.state == StateDone || t.state == StateCanceled }

func (t *ticket) snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		ID:       t.id,
		State:    t.state,
		NumJobs:  len(t.jobs),
		Created:  t.created,
		Started:  t.started,
		Finished: t.finished,
		Deadline: t.deadline,
		Err:      t.err,
	}
	if t.terminal() {
		st.Outcomes = t.outcomes
	}
	return st
}

// Server is the async compilation service.
type Server struct {
	cfg      Config
	compiler *driver.Compiler
	start    time.Time
	logger   *slog.Logger

	// registry holds every metric instrument of this server (the engine's
	// and the service's own); GET /metrics and Stats both read it, so the
	// two views can never disagree.
	registry *telemetry.Registry
	metrics  serviceMetrics
	// queued counts the tickets whose goroutine has not started yet.
	queued atomic.Int64

	// tickets holds the unfinished tickets and the finished ones still
	// retained, which doneOrder lists: the unfinished count is the
	// difference (live).
	mu        sync.Mutex
	tickets   map[string]*ticket
	doneOrder []string // finished ticket IDs in retirement order, for pruning
	doneJobs  int      // jobs held by the tickets in doneOrder
	seq       uint64
	draining  bool

	// serving counts the ticket goroutines; Shutdown waits for them.
	serving sync.WaitGroup
}

// serviceMetrics is the service's own instrument set (the engine
// registers its instruments separately via driver.Config.Registry). The
// lifecycle counters of /stats live here — the registry is the single
// source of truth, not a parallel set of ad-hoc fields.
type serviceMetrics struct {
	// tickets counts lifecycle events (submitted, completed, canceled,
	// rejected); jobsSubmitted counts accepted jobs by strategy.
	tickets       *telemetry.CounterVec
	jobsSubmitted *telemetry.CounterVec
	// jobsDone counts loop compilations served (cache hits included).
	jobsDone *telemetry.Counter
	// inFlight gauges batches currently running.
	inFlight *telemetry.Gauge
	// httpRequests counts HTTP responses by status code (see http.go).
	httpRequests *telemetry.CounterVec
}

// New starts a Server.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg: cfg,
		compiler: driver.New(driver.Config{
			Workers:   cfg.Workers,
			CacheSize: cfg.CacheSize,
			Store:     cfg.Store,
			Registry:  reg,
		}),
		start:    time.Now(),
		logger:   logger,
		registry: reg,
		tickets:  make(map[string]*ticket),
		metrics: serviceMetrics{
			tickets: reg.NewCounterVec("clusched_tickets_total",
				"Ticket lifecycle events.", "event"),
			jobsSubmitted: reg.NewCounterVec("clusched_jobs_submitted_total",
				"Jobs accepted into the queue by scheduling strategy.", "strategy"),
			jobsDone: reg.NewCounter("clusched_service_jobs_completed_total",
				"Loop compilations served (cache hits included)."),
			inFlight: reg.NewGauge("clusched_inflight_batches",
				"Batches currently running."),
			httpRequests: reg.NewCounterVec("clusched_http_requests_total",
				"HTTP responses by status code.", "code"),
		},
	}
	reg.NewGaugeFunc("clusched_queue_length",
		"Tickets waiting in the admission queue.",
		func() float64 { return float64(s.queued.Load()) })
	reg.NewGaugeFunc("clusched_queue_capacity",
		"Admission-queue bound (Config.QueueDepth).",
		func() float64 { return float64(cfg.QueueDepth) })
	reg.NewGaugeFunc("clusched_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	return s
}

// Registry exposes the server's metric registry (GET /metrics serves it;
// tests register probes against it).
func (s *Server) Registry() *telemetry.Registry { return s.registry }

// errCanceled is the cancellation cause for explicit Cancel calls.
var errCanceled = errors.New("service: canceled by request")

// SubmitOptions tune one submission.
type SubmitOptions struct {
	// Timeout bounds the ticket's lifetime from submission; 0 falls back
	// to the server's DefaultTimeout.
	Timeout time.Duration
	// Trace records an execution trace for this ticket (see
	// Server.Trace and GET /jobs/{id}/trace). Config.TraceJobs traces
	// every ticket regardless.
	Trace bool
}

// Submit starts a batch and returns its ticket ID immediately. It
// rejects with *ErrQueueFull when QueueDepth tickets are unfinished and with
// ErrShuttingDown during drain. The jobs slice is retained; callers must
// not mutate it afterwards.
func (s *Server) Submit(jobs []driver.Job, opts SubmitOptions) (string, error) {
	t, err := s.submit(jobs, opts)
	if err != nil {
		return "", err
	}
	return t.id, nil
}

// submit is Submit handing back the ticket record itself.
func (s *Server) submit(jobs []driver.Job, opts SubmitOptions) (*ticket, error) {
	if len(jobs) == 0 {
		return nil, errors.New("service: empty batch")
	}
	t, err := s.enqueue(jobs, opts)
	if err != nil {
		s.metrics.tickets.With("rejected").Inc()
		var full *ErrQueueFull
		if errors.As(err, &full) {
			s.logger.Warn("ticket rejected: queue full",
				"jobs", len(jobs), "retry_after", full.RetryAfter)
		}
		return nil, err
	}
	for range jobs {
		t.gate.Admit()
	}
	s.accept(t)
	return t, nil
}

// enqueue registers a ticket for jobs with none admitted and starts its
// goroutine, counting nothing: accept books it once every job is admitted.
// The jobs may be filled in and admitted while the ticket runs. It fails
// with ErrShuttingDown or *ErrQueueFull.
func (s *Server) enqueue(jobs []driver.Job, opts SubmitOptions) (*ticket, error) {
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrShuttingDown
	}
	if live := s.live(); live >= s.cfg.QueueDepth {
		return nil, &ErrQueueFull{RetryAfter: retryAfter(live)}
	}
	s.seq++
	t := &ticket{
		id:       fmt.Sprintf("job-%d", s.seq),
		jobs:     jobs,
		created:  time.Now(),
		done:     make(chan struct{}),
		outcomes: make([]driver.Outcome, len(jobs)),
		order:    make([]int, 0, len(jobs)),
		release:  func() {},
		gate:     driver.NewGate(len(jobs)),
	}
	if opts.Trace || s.cfg.TraceJobs {
		t.trace = telemetry.NewTrace()
		for i := range jobs {
			jobs[i].Trace = t.trace
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		ctx, t.release = context.WithTimeout(ctx, timeout)
		t.deadline = t.created.Add(timeout)
	}
	t.ctx, t.cancel = context.WithCancelCause(ctx)
	s.tickets[t.id] = t
	s.queued.Add(1)
	s.serving.Add(1)
	go s.serve(t)
	return t, nil
}

// live counts the tickets admitted and not yet finished; s.mu is held.
func (s *Server) live() int { return len(s.tickets) - len(s.doneOrder) }

// accept books a ticket whose every job is admitted, and ends its
// admission.
func (s *Server) accept(t *ticket) {
	s.metrics.tickets.With("submitted").Inc()
	for i := range t.jobs {
		s.metrics.jobsSubmitted.With(t.jobs[i].Opts.StrategyName()).Inc()
	}
	s.logger.Debug("ticket submitted",
		"ticket", t.id, "jobs", len(t.jobs), "traced", t.trace != nil)
	t.gate.Close()
}

// withdraw takes back a ticket whose admission was refused. It leaves the
// server as if it had never been admitted: out of the tickets map, counted
// nowhere, its compilations stopped, and its goroutine retires nothing.
func (s *Server) withdraw(t *ticket) {
	s.mu.Lock()
	delete(s.tickets, t.id)
	s.mu.Unlock()
	t.cancel(errCanceled)
	t.withdrawn = true
	t.gate.Close()
}

// retryAfter estimates when capacity frees up: proportional to the live
// tickets, floored at a polling-friendly interval.
func retryAfter(live int) time.Duration {
	return max(time.Duration(live)*250*time.Millisecond, 500*time.Millisecond)
}

// serve is a ticket's goroutine: the batch runs through the engine's
// stream, so every finished job is published to watchers (the NDJSON
// endpoint, the client's Stream) the moment it completes, not when the
// batch ends. The stream ends only once the gate is closed, after accept or
// withdraw is done with the ticket.
func (s *Server) serve(t *ticket) {
	defer s.serving.Done()
	defer t.release()
	s.queued.Add(-1)
	s.metrics.inFlight.Add(1)
	t.mu.Lock()
	t.state = StateRunning
	t.started = time.Now()
	t.mu.Unlock()
	if t.trace != nil {
		// The trace's epoch is the submission instant, so a span from 0
		// to now is exactly the ticket's wait to start.
		t.trace.Span(t.trace.Track("service"), "service", "queued", 0,
			telemetry.Arg{Key: "ticket", Val: t.id})
	}

	for i, out := range driver.StreamAdmitted(s.compiler, t.ctx, t.jobs, t.gate) {
		t.publish(i, out)
		if s.cfg.SlowCompile > 0 && out.Elapsed >= s.cfg.SlowCompile {
			s.logSlow(t, out)
		}
	}

	s.metrics.inFlight.Add(-1)
	switch cerr := t.ctx.Err(); {
	case t.withdrawn:
		// Booked nowhere; it ends only for whoever looked it up meanwhile.
		t.mu.Lock()
		t.state = StateCanceled
		close(t.done)
		t.mu.Unlock()
	case cerr != nil:
		// Completed outcomes survive; the ticket reports why it stopped.
		s.retire(t, StateCanceled, cancelCause(t.ctx, cerr))
	default:
		s.retire(t, StateDone, driver.AggregateError(t.outcomes))
	}
}

// logSlow emits the threshold-gated slow-compilation warning, with the
// ticket's trace summary attached when one is being recorded.
func (s *Server) logSlow(t *ticket, out driver.Outcome) {
	attrs := []any{
		"ticket", t.id,
		"elapsed", out.Elapsed,
		"machine", out.Job.Machine.Name,
		"strategy", out.Job.Opts.StrategyName(),
	}
	if out.Job.Graph != nil {
		attrs = append(attrs, "loop", out.Job.Graph.Name)
	}
	if out.Err != nil {
		attrs = append(attrs, "error", out.Err)
	}
	if sum := t.trace.Summary(); sum.Spans > 0 {
		attrs = append(attrs, "trace_spans", sum.Spans, "trace_wall", sum.Wall)
	}
	s.logger.Warn("slow compilation", attrs...)
}

// cancelCause maps a context error to the most informative cause.
func cancelCause(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, err) {
		return fmt.Errorf("%w (%v)", cause, err)
	}
	return err
}

// jobRetention bounds what stays pollable after it finished: tickets holding
// at most that many jobs between them, the oldest forgotten first (live
// tickets are never pruned). A ticket keeps its jobs and outcomes alive, so
// retention is memory and memory is jobs: one bound for a thousand unary
// requests, a dozen program-sized batches and a fleet's sub-batches alike
// (every ticket holds at least one job, so it bounds the tickets too). The
// most recently finished ticket is kept whatever its size, so a stream cut
// at the end of one large batch can still resume over the ticket's stream.
const jobRetention = 1024

// retire moves the ticket to its terminal state, once its stream has
// ended, and updates the lifecycle counters and the retention list. Closing
// done comes last and t.mu is held throughout: whoever learns the ticket is
// over, by done or by snapshot, finds it counted, logged and the tickets it
// displaced already pruned.
func (s *Server) retire(t *ticket, state State, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.state = state
	t.err = err
	t.finished = time.Now()
	switch state {
	case StateDone:
		s.metrics.tickets.With("completed").Inc()
		s.metrics.jobsDone.Add(uint64(len(t.outcomes)))
		s.logger.Info("ticket done", "ticket", t.id, "jobs", len(t.outcomes))
	case StateCanceled:
		s.metrics.tickets.With("canceled").Inc()
		for _, o := range t.outcomes {
			if o.Result != nil || (o.Err != nil && !errors.Is(o.Err, context.Canceled) && !errors.Is(o.Err, context.DeadlineExceeded)) {
				s.metrics.jobsDone.Inc()
			}
		}
		s.logger.Info("ticket canceled", "ticket", t.id, "cause", err)
	}
	s.mu.Lock()
	s.doneOrder = append(s.doneOrder, t.id)
	s.doneJobs += len(t.jobs)
	for len(s.doneOrder) > 1 && s.doneJobs > jobRetention {
		oldest := s.doneOrder[0]
		s.doneJobs -= len(s.tickets[oldest].jobs)
		delete(s.tickets, oldest)
		s.doneOrder = s.doneOrder[1:]
	}
	s.mu.Unlock()
	close(t.done)
}

// Job returns a snapshot of the ticket, if it exists.
func (s *Server) Job(id string) (Status, bool) {
	t, ok := s.lookup(id)
	if !ok {
		return Status{}, false
	}
	return t.snapshot(), true
}

// Wait blocks until the ticket reaches a terminal state or ctx is done.
func (s *Server) Wait(ctx context.Context, id string) (Status, error) {
	t, ok := s.lookup(id)
	if !ok {
		return Status{}, fmt.Errorf("service: unknown ticket %q", id)
	}
	select {
	case <-t.done:
		return t.snapshot(), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// lookup returns the live ticket record; the HTTP stream handler holds it
// across the whole response so retention pruning of the tickets map can
// never yank its state mid-stream.
func (s *Server) lookup(id string) (*ticket, bool) {
	s.mu.Lock()
	t, ok := s.tickets[id]
	s.mu.Unlock()
	return t, ok
}

// Watch returns an iterator over the ticket's completion events and
// whether the ticket exists. Events already logged are replayed first (a
// late watcher misses nothing), then live completions are yielded as the
// engine produces them. Iteration ends when the ticket reaches a terminal
// state — every job of the batch has been yielded by then, cancelled jobs
// included — or when ctx is done.
func (s *Server) Watch(ctx context.Context, id string) (iter.Seq[Event], bool) {
	t, ok := s.lookup(id)
	if !ok {
		return nil, false
	}
	return t.watch(ctx, nil), true
}

// watch is the iterator behind Server.Watch, bound to the ticket itself.
// caughtUp, when non-nil, is called each time every logged event has been
// yielded and the iterator is about to wait for the next (the stream
// endpoint flushes there).
func (t *ticket) watch(ctx context.Context, caughtUp func()) iter.Seq[Event] {
	return func(yield func(Event) bool) {
		var pending []Event
		for pos := 0; ; {
			var terminal bool
			var update <-chan struct{}
			pending, terminal, update = t.backlog(pos, pending)
			for _, e := range pending {
				pos++
				if !yield(e) {
					return
				}
			}
			if terminal {
				return
			}
			if update == nil {
				continue // more may have been logged while those were yielded
			}
			if caughtUp != nil {
				caughtUp()
			}
			select {
			case <-update:
			case <-t.done:
			case <-ctx.Done():
				return
			}
		}
	}
}

// Cancel cancels a ticket: its jobs stop at the engine's next
// cancellation point, and it keeps their completed outcomes. Cancel reports
// whether the ticket exists.
func (s *Server) Cancel(id string) bool {
	t, ok := s.lookup(id)
	if !ok {
		return false
	}
	t.cancel(errCanceled)
	return true
}

// Stats reports the service metrics. Every counter is read back from the
// same registry instruments GET /metrics exposes, so the two views agree
// by construction.
func (s *Server) Stats() wire.ServiceStats {
	m := &s.metrics
	st := wire.ServiceStats{
		Queued:       int(s.queued.Load()),
		InFlight:     int(m.inFlight.Value()),
		QueueDepth:   s.cfg.QueueDepth,
		Submitted:    m.tickets.With("submitted").Value(),
		Completed:    m.tickets.With("completed").Value(),
		Canceled:     m.tickets.With("canceled").Value(),
		Rejected:     m.tickets.With("rejected").Value(),
		JobsCompiled: m.jobsDone.Value(),
		Draining:     s.Draining(),
	}
	st.InFlightCompiles, st.MaxInFlight = s.compiler.InFlightCompiles()
	submittedByStrategy := m.jobsSubmitted.Snapshot()
	st.UptimeSec = time.Since(s.start).Seconds()
	if st.UptimeSec > 0 {
		st.JobsPerSec = float64(st.JobsCompiled) / st.UptimeSec
	}
	cs := s.compiler.CacheStats()
	st.Cache = wire.CacheStats{
		Hits:              cs.Hits,
		Misses:            cs.Misses,
		StoreHits:         cs.StoreHits,
		SemanticHits:      cs.SemanticHits,
		SemanticStoreHits: cs.SemanticStoreHits,
		Entries:           cs.Entries,
		HitRate:           cs.HitRate(),
	}
	// Merge the service-side submission counts with the engine's
	// per-strategy cache accounting into one per-strategy view.
	if len(submittedByStrategy) > 0 || len(cs.Strategies) > 0 {
		st.Strategies = make(map[string]wire.StrategyStats, len(submittedByStrategy))
		for name, n := range submittedByStrategy {
			ss := st.Strategies[name]
			ss.JobsSubmitted = n
			st.Strategies[name] = ss
		}
		for name, d := range cs.Strategies {
			ss := st.Strategies[name]
			ss.CacheHits = d.Hits
			ss.CacheMisses = d.Misses
			ss.StoreHits = d.StoreHits
			ss.SemanticHits = d.SemanticHits
			ss.SemanticStoreHits = d.SemanticStoreHits
			st.Strategies[name] = ss
		}
	}
	return st
}

// Trace returns the ticket's execution trace, if the ticket exists and
// was submitted with tracing on. The trace may still be accumulating
// spans while the ticket runs; Trace.WriteJSON snapshots safely.
func (s *Server) Trace(id string) (*telemetry.Trace, bool) {
	t, ok := s.lookup(id)
	if !ok || t.trace == nil {
		return nil, false
	}
	return t.trace, true
}

// Draining reports whether the server is shutting down.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Shutdown drains the server gracefully: no new submissions are accepted,
// the unfinished tickets finish, then Shutdown returns. If ctx expires
// first, every outstanding ticket is cancelled and Shutdown returns
// ctx.Err() once their goroutines end. Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	var pending []*ticket
	for _, t := range s.tickets {
		pending = append(pending, t)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.serving.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		for _, t := range pending {
			t.cancel(ErrShuttingDown)
		}
		<-done
		return ctx.Err()
	}
}
