// Package service turns the batch-compilation engine into a long-lived
// compilation server: compilation-as-a-service. A Server wraps one shared
// driver.Compiler behind an asynchronous ticket API — Submit returns
// immediately with a ticket, a bounded queue applies admission control
// (reject-with-retry-after when full), each ticket carries a deadline and
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
	"sync"
	"time"

	"clusched/internal/driver"
	"clusched/internal/telemetry"
	"clusched/internal/wire"
)

// Config parameterizes a Server. The zero value is usable: GOMAXPROCS
// compile workers, one batch runner, a 64-ticket queue, no deadline
// policy and no persistence.
type Config struct {
	// Workers bounds concurrent compilations inside a batch (driver
	// worker pool); ≤0 means GOMAXPROCS.
	Workers int
	// CacheSize bounds the engine's in-memory LRU (0 = driver default).
	CacheSize int
	// Runners is the number of batches processed concurrently; ≤0 means 1.
	// Each running batch fans out over the shared worker pool, so one
	// runner already saturates the CPU; more runners trade batch latency
	// fairness for head-of-line blocking. Real compilations beyond the
	// engine's compile budget of max(Workers, GOMAXPROCS) wait for a slot
	// (/stats max_inflight).
	Runners int
	// QueueDepth bounds the number of queued (not yet running) tickets;
	// ≤0 means 64. Submits beyond it are rejected with ErrQueueFull.
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

// ErrQueueFull rejects submissions when the queue is at QueueDepth.
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
	// Outcomes is set once the ticket finished (Done, or Canceled after
	// it started running — completed outcomes survive cancellation),
	// index-aligned with the submitted jobs.
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
	// release frees the deadline's timer once the ticket is over.
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
	outcomes []driver.Outcome
	err      error
	done     chan struct{} // closed when the ticket reaches Done/Canceled
	// events is the append-only completion log behind Watch: one entry per
	// finished job, in completion order. update, made when a watcher has
	// caught up and needs something to block on, is closed and dropped by
	// the next append, so watchers wait for "something new" without polling
	// and an unwatched ticket pays nothing.
	events []Event
	update chan struct{}
}

// publish appends one completion event and wakes every watcher.
func (t *ticket) publish(i int, out driver.Outcome) {
	t.mu.Lock()
	t.events = append(t.events, Event{Index: i, Outcome: out})
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
	pending = append(buf[:0], t.events[pos:]...)
	terminal = t.state == StateDone || t.state == StateCanceled
	if len(pending) == 0 && !terminal {
		if t.update == nil {
			t.update = make(chan struct{})
		}
		update = t.update
	}
	return pending, terminal, update
}

func (t *ticket) snapshot() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Status{
		ID:       t.id,
		State:    t.state,
		NumJobs:  len(t.jobs),
		Created:  t.created,
		Started:  t.started,
		Finished: t.finished,
		Deadline: t.deadline,
		Outcomes: t.outcomes,
		Err:      t.err,
	}
}

// claim atomically moves the ticket from Queued to Running; it fails when
// the watcher retired the ticket first.
func (t *ticket) claim() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != StateQueued {
		return false
	}
	t.state = StateRunning
	t.started = time.Now()
	return true
}

// Server is the async compilation service.
type Server struct {
	cfg      Config
	compiler *driver.Compiler
	queue    chan *ticket
	start    time.Time
	logger   *slog.Logger

	// registry holds every metric instrument of this server (the engine's
	// and the service's own); GET /metrics and Stats both read it, so the
	// two views can never disagree.
	registry *telemetry.Registry
	metrics  serviceMetrics

	mu        sync.Mutex
	tickets   map[string]*ticket
	doneOrder []string // finished ticket IDs in retirement order, for pruning
	doneJobs  int      // jobs held by the tickets in doneOrder
	seq       uint64
	draining  bool

	runnerWG sync.WaitGroup
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

// New starts a Server: the runners come up immediately and wait for work.
func New(cfg Config) *Server {
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
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
		queue:    make(chan *ticket, cfg.QueueDepth),
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
		func() float64 { return float64(len(s.queue)) })
	reg.NewGaugeFunc("clusched_queue_capacity",
		"Admission-queue bound (Config.QueueDepth).",
		func() float64 { return float64(cfg.QueueDepth) })
	reg.NewGaugeFunc("clusched_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	for i := 0; i < cfg.Runners; i++ {
		s.runnerWG.Add(1)
		go s.run()
	}
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

// Submit enqueues a batch and returns its ticket ID immediately. It
// rejects with *ErrQueueFull when the queue is at capacity and with
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

// enqueue queues a ticket for jobs with none admitted, counting nothing:
// accept books it once every job is admitted. The jobs may be filled in and
// admitted while the ticket waits or runs. It fails with ErrShuttingDown
// or *ErrQueueFull.
func (s *Server) enqueue(jobs []driver.Job, opts SubmitOptions) (*ticket, error) {
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = s.cfg.DefaultTimeout
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrShuttingDown
	}
	s.seq++
	t := &ticket{
		id:      fmt.Sprintf("job-%d", s.seq),
		jobs:    jobs,
		created: time.Now(),
		done:    make(chan struct{}),
		events:  make([]Event, 0, len(jobs)),
		release: func() {},
		gate:    driver.NewGate(len(jobs)),
	}
	if opts.Trace || s.cfg.TraceJobs {
		t.trace = telemetry.NewTrace()
		for i := range jobs {
			jobs[i].Trace = t.trace
		}
	}
	ctx := context.Background()
	if timeout > 0 {
		// The deadline spans queueing and execution: a ticket that waits
		// out its whole budget in the queue is cancelled, not run late.
		ctx, t.release = context.WithTimeout(ctx, timeout)
		t.deadline = t.created.Add(timeout)
	}
	t.ctx, t.cancel = context.WithCancelCause(ctx)

	select {
	case s.queue <- t:
		s.tickets[t.id] = t
		s.mu.Unlock()
		return t, nil
	default:
		s.mu.Unlock()
		t.cancel(nil)
		t.release()
		return nil, &ErrQueueFull{RetryAfter: s.retryAfter()}
	}
}

// accept books a queued ticket whose every job is admitted, and ends its
// admission.
func (s *Server) accept(t *ticket) {
	s.metrics.tickets.With("submitted").Inc()
	for i := range t.jobs {
		s.metrics.jobsSubmitted.With(t.jobs[i].Opts.StrategyName()).Inc()
	}
	s.logger.Debug("ticket submitted",
		"ticket", t.id, "jobs", len(t.jobs), "traced", t.trace != nil)
	// Watcher: a ticket cancelled or expired while still queued is
	// retired on the spot instead of waiting for a runner to reach it
	// (claim/finish arbitrate the race with a runner picking it up).
	go func() {
		defer t.release()
		select {
		case <-t.ctx.Done():
			s.retire(t, StateCanceled, nil, cancelCause(t.ctx, t.ctx.Err()), true)
			<-t.done // a running batch finishes on its own terms
		case <-t.done:
		}
	}()
	t.gate.Close()
}

// withdraw takes back a ticket whose admission was refused. It leaves the
// server as if it had never been queued: out of the tickets map, counted
// nowhere, its compilations stopped, and a runner that claimed it retires
// nothing.
func (s *Server) withdraw(t *ticket) {
	s.mu.Lock()
	delete(s.tickets, t.id)
	s.mu.Unlock()
	t.cancel(errCanceled)
	t.release()
	t.mu.Lock()
	t.state = StateCanceled // a runner that has not claimed it never will
	t.mu.Unlock()
	close(t.done)
	t.withdrawn = true
	t.gate.Close()
}

// retryAfter estimates when queue capacity frees up: proportional to the
// backlog, floored at a polling-friendly interval.
func (s *Server) retryAfter() time.Duration {
	backlog := len(s.queue)
	d := time.Duration(backlog) * 250 * time.Millisecond / time.Duration(s.cfg.Runners)
	if d < 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d
}

// run is one batch runner: it drains the queue until Shutdown closes it.
func (s *Server) run() {
	defer s.runnerWG.Done()
	for t := range s.queue {
		s.serve(t)
	}
}

// serve executes one ticket: the batch runs through the engine's stream,
// so every finished job is published to watchers (the NDJSON endpoint, the
// client's Stream) the moment it completes, not when the batch ends.
func (s *Server) serve(t *ticket) {
	if !t.claim() {
		// Cancelled or expired while queued; the watcher retired it.
		return
	}
	s.metrics.inFlight.Add(1)
	if t.trace != nil {
		// The trace's epoch is the submission instant, so a span from 0
		// to now is exactly the ticket's queue wait.
		t.trace.Span(t.trace.Track("service"), "service", "queued", 0,
			telemetry.Arg{Key: "ticket", Val: t.id})
	}

	outcomes := make([]driver.Outcome, len(t.jobs))
	// The stream ends only once the gate is closed, after accept or
	// withdraw is done with the ticket.
	for i, out := range driver.StreamAdmitted(s.compiler, t.ctx, t.jobs, t.gate) {
		outcomes[i] = out
		t.publish(i, out)
		if s.cfg.SlowCompile > 0 && out.Elapsed >= s.cfg.SlowCompile {
			s.logSlow(t, out)
		}
	}
	err := driver.AggregateError(outcomes)

	s.metrics.inFlight.Add(-1)
	if t.withdrawn {
		return // a ticket is retired only if it was accepted
	}
	if cerr := t.ctx.Err(); cerr != nil {
		// Completed outcomes survive; the ticket reports why it stopped.
		s.retire(t, StateCanceled, outcomes, cancelCause(t.ctx, cerr), false)
		return
	}
	s.retire(t, StateDone, outcomes, err, false)
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

// retire moves the ticket to a terminal state exactly once and updates the
// lifecycle counters and the retention list. With requireQueued it only
// retires tickets that never started running — the cancellation watcher
// uses it so it can never clobber a running batch's outcomes. Closing done
// comes last and t.mu is held throughout: whoever learns the ticket is over,
// by done or by snapshot, finds it counted, logged and the tickets it
// displaced already pruned.
func (s *Server) retire(t *ticket, state State, outcomes []driver.Outcome, err error, requireQueued bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == StateDone || t.state == StateCanceled {
		return
	}
	if requireQueued && t.state != StateQueued {
		return
	}
	t.state = state
	t.outcomes = outcomes
	t.err = err
	t.finished = time.Now()
	switch state {
	case StateDone:
		s.metrics.tickets.With("completed").Inc()
		s.metrics.jobsDone.Add(uint64(len(outcomes)))
		s.logger.Info("ticket done", "ticket", t.id, "jobs", len(outcomes))
	case StateCanceled:
		s.metrics.tickets.With("canceled").Inc()
		for _, o := range outcomes {
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
	s.mu.Lock()
	t, ok := s.tickets[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, false
	}
	return t.snapshot(), true
}

// Wait blocks until the ticket reaches a terminal state or ctx is done.
func (s *Server) Wait(ctx context.Context, id string) (Status, error) {
	s.mu.Lock()
	t, ok := s.tickets[id]
	s.mu.Unlock()
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
// state — every job of a batch that started running has been yielded by
// then, cancelled jobs included — or when ctx is done.
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

// Cancel cancels a ticket. Queued tickets are retired on the spot;
// running tickets stop at the engine's next cancellation point and keep
// their completed outcomes. Cancel reports whether the ticket exists.
func (s *Server) Cancel(id string) bool {
	s.mu.Lock()
	t, ok := s.tickets[id]
	s.mu.Unlock()
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
		Queued:       len(s.queue),
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
// queued and running tickets finish, then Shutdown returns. If ctx
// expires first, every outstanding ticket is cancelled and Shutdown
// returns ctx.Err() once the runners stop. Shutdown is idempotent; only
// the first call closes the queue.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	var pending []*ticket
	for _, t := range s.tickets {
		pending = append(pending, t)
	}
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.runnerWG.Wait()
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
