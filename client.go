package clusched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"iter"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"clusched/internal/wire"
)

// Client speaks to a clusched-serve compilation service; it is the remote
// implementation of Backend: a wire.Endpoint — the exchanges the fleet's
// nodes run too — plus the policy of a caller with one server. A queue-full
// refusal is a *QueueFullError, a stream the transport cuts resumes over the
// poll loop, and an outcome that fails its proof is that job's error. Results
// come back through the wire codec, which rebuilds and re-verifies every
// schedule — a Result obtained remotely is as trustworthy as one compiled
// in-process, and carries the full Schedule and Placement (so kernels can be
// printed and pipelines expanded locally).
//
// The zero Client is not usable; call NewRemote.
type Client struct {
	// ep.Timeout bounds each unary exchange (see DefaultClientTimeout) and
	// each gap between two frames of a stream.
	ep wire.Endpoint
	// pollInterval is the first interval of WaitBatch's ladder:
	// pollBaseInterval, which tests shorten.
	pollInterval time.Duration
	// RequestTraces asks the server to record an execution trace for every
	// batch this client submits; fetch it with Trace once the ticket
	// finishes. Servers that predate tracing ignore the request.
	RequestTraces bool
}

// DefaultClientTimeout bounds each unary HTTP exchange (submit, status,
// stats, blocking compile) when NewRemote is not given WithTimeout. It is
// deliberately generous — a blocking /compile?wait=1 spans a full
// compilation — while still guaranteeing that a wedged server cannot hang
// a caller forever. WithTimeout(0) disables the bound.
const DefaultClientTimeout = 5 * time.Minute

// Poll pacing: the first probe comes quickly (most batches are
// small), then the interval grows geometrically to a lazy cap, each wait
// jittered ±25% so a fleet of clients polling one server does not beat on
// it in lockstep.
const (
	pollBaseInterval = 50 * time.Millisecond
	pollMaxInterval  = 2 * time.Second
	pollGrowth       = 1.6
)

// NewRemote builds the remote Backend: a client for the clusched-serve
// instance at base (e.g. "http://localhost:8357"). Client-level options
// (WithHTTPClient, WithTimeout) apply.
func NewRemote(base string, opts ...Option) *Client {
	s := applySettings("NewRemote", scopeClient, opts)
	c := &Client{pollInterval: pollBaseInterval,
		ep: wire.Endpoint{Base: strings.TrimRight(base, "/"), HC: s.client.httpClient, Timeout: DefaultClientTimeout}}
	if s.client.hasTimeout {
		c.ep.Timeout = s.client.timeout
	}
	return c
}

// RemoteStats is the service's /stats answer.
type RemoteStats = wire.ServiceStats

// QueueFullError reports an admission-control rejection (HTTP 429); the
// caller should retry after the hinted delay.
type QueueFullError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("clusched: service queue full, retry after %v", e.RetryAfter)
}

// queueFull types the one refusal a single-server caller acts on: wait out
// the hint and submit again.
func queueFull(err error) error {
	var se *wire.StatusError
	if errors.As(err, &se) && se.Code == http.StatusTooManyRequests {
		return &QueueFullError{RetryAfter: se.RetryAfter}
	}
	return err
}

// Health reports whether the service is up and accepting work.
func (c *Client) Health(ctx context.Context) error { return c.ep.Health(ctx) }

// Stats fetches the service metrics.
func (c *Client) Stats(ctx context.Context) (RemoteStats, error) { return c.ep.Stats(ctx) }

// Compile compiles one job remotely (POST /compile?wait=1, blocking until
// the service finishes): the unary half of Backend. Callers that care
// whether the service answered from its cache should use Do.
func (c *Client) Compile(ctx context.Context, job CompileJob) (*Result, error) {
	out, err := c.Do(ctx, job)
	if err != nil {
		return nil, err
	}
	return out.Result, out.Err
}

// Do compiles one job remotely and returns the full outcome, including
// whether the service answered from its cache.
func (c *Client) Do(ctx context.Context, job CompileJob) (CompileOutcome, error) {
	out, err := c.ep.Do(ctx, job)
	return out, queueFull(err)
}

// Stream implements Backend over the service's NDJSON push endpoint: it
// submits the batch, opens GET /batch/{id}/stream and yields each outcome
// the moment the server finishes it — true server push, no polling. Every job
// yields exactly once; submit or transport failures surface as the outcome
// error of every job the stream had not yet delivered. A stream the
// transport cuts mid-batch resumes over the poll loop (the server keeps
// compiling the ticket); a stream the server refuses is an error. Breaking
// out of the iteration, or cancelling ctx, cancels the ticket on the server.
func (c *Client) Stream(ctx context.Context, jobs []CompileJob) iter.Seq2[int, CompileOutcome] {
	return func(yield func(int, CompileOutcome) bool) {
		if len(jobs) == 0 {
			return
		}
		delivered := make([]bool, len(jobs))
		// fail stamps every undelivered job with err; it returns false when
		// the consumer stopped the iteration.
		fail := func(err error) bool {
			for i := range jobs {
				if !delivered[i] {
					delivered[i] = true
					if !yield(i, CompileOutcome{Job: jobs[i], Err: err}) {
						return false
					}
				}
			}
			return true
		}
		id, err := c.ep.Stream(ctx, jobs, c.RequestTraces, delivered,
			func(i int, out CompileOutcome, derr error) bool {
				if derr != nil {
					// An outcome that fails its proof is that job's error.
					out.Err = derr
				}
				return yield(i, out)
			})
		switch {
		case err == nil, errors.Is(err, wire.ErrConsumerStopped):
			// Complete, or the consumer broke out of the iteration: yield
			// must not be called again.
		case errors.Is(err, wire.ErrStreamCut):
			// The transport cut the stream but the batch is still alive on the
			// server (and the work the server already did is not lost). Resume
			// over the poll path: the delivered ledger guarantees the suffix
			// the stream never carried is yielded exactly once.
			c.pollRemainder(ctx, id, jobs, delivered, yield, fail)
		default:
			fail(queueFull(err))
		}
	}
}

// pollRemainder waits out a live ticket over the poll endpoint and yields
// every outcome the stream has not delivered yet. It is the resume path
// when an NDJSON stream is cut mid-batch: the delivered ledger makes the
// hand-off exactly-once.
func (c *Client) pollRemainder(ctx context.Context, id string, jobs []CompileJob, delivered []bool,
	yield func(int, CompileOutcome) bool, fail func(error) bool) {
	st, werr := c.waitBatch(ctx, id, jobs)
	if werr != nil {
		fail(werr)
		return
	}
	if len(st.Outcomes) != len(jobs) {
		werr := st.Err
		if werr == nil {
			werr = fmt.Errorf("clusched: service answered %d outcomes for %d jobs (ticket %s %s)",
				len(st.Outcomes), len(jobs), id, st.State)
		}
		fail(werr)
		return
	}
	for i, out := range st.Outcomes {
		if delivered[i] {
			continue
		}
		delivered[i] = true
		if !yield(i, out) {
			return
		}
	}
}

// SubmitBatch submits jobs for asynchronous remote compilation and
// returns the ticket ID. timeout bounds the batch's remote lifetime
// (0 = the server's policy).
func (c *Client) SubmitBatch(ctx context.Context, jobs []CompileJob, timeout time.Duration) (string, error) {
	id, err := c.ep.Submit(ctx, jobs, timeout, c.RequestTraces)
	return id, queueFull(err)
}

// Trace fetches a finished ticket's execution trace as Chrome trace-event
// JSON (GET /jobs/{id}/trace) — load it in chrome://tracing or Perfetto.
// The server records a trace only when the batch asked for one (see
// RequestTraces) or the server runs with -trace-jobs; otherwise the answer
// is an error.
func (c *Client) Trace(ctx context.Context, id string) (blob []byte, err error) {
	err = c.ep.Call(ctx, http.MethodGet, "/jobs/"+id+"/trace", nil, func(r io.Reader) (rerr error) {
		blob, rerr = io.ReadAll(r)
		return rerr
	})
	return blob, err
}

// BatchStatus is a remote ticket snapshot; Outcomes is nil until the
// ticket finishes.
type BatchStatus struct {
	ID    string
	State string
	// Deadline is the ticket's server-side lifetime bound (zero when the
	// ticket has none); WaitBatch caps its total polling against it.
	Deadline time.Time
	// RetryAfter is the server's poll-again hint for an unfinished ticket
	// (zero when the server offered none); WaitBatch prefers it over its
	// own backoff ladder.
	RetryAfter time.Duration
	// Outcomes is index-aligned with the submitted jobs; Job fields are
	// zero (the submitter already has them).
	Outcomes []CompileOutcome
	// Err summarizes the batch failure or cancellation, if any.
	Err error
}

// Status polls a ticket once.
func (c *Client) Status(ctx context.Context, id string) (BatchStatus, error) {
	return c.status(ctx, id, nil)
}

// status polls a ticket once. A caller that still holds the ticket's jobs
// passes them: the server is then asked not to echo the loops back, and
// each outcome is decoded for its job.
func (c *Client) status(ctx context.Context, id string, jobs []CompileJob) (BatchStatus, error) {
	path := "/jobs/" + id
	if jobs != nil {
		path += "?" + wire.NoLoop
	}
	var ws wire.JobStatus
	err := c.ep.Call(ctx, http.MethodGet, path, nil, func(r io.Reader) error { return wire.ReadJobStatus(r, &ws) })
	if err != nil {
		return BatchStatus{}, err
	}
	return decodeStatus(ws, jobs)
}

// waitBatchGrace pads the ticket deadline before WaitBatch gives up: the
// server needs a moment past the deadline to cancel the ticket and publish
// the terminal status, and clocks are never perfectly aligned.
const waitBatchGrace = 2 * time.Second

// WaitBatch polls a ticket until it finishes (or ctx is done) and returns
// the final status with decoded outcomes; Stream resumes a cut stream
// through it.
// Pacing prefers the server's own Retry-After hint — the server knows its
// backlog better than any client-side schedule — and only without one backs
// off geometrically from 50ms to a 2s cap; every
// wait is jittered ±25% so synchronized clients spread out instead of
// hammering the server in lockstep. Total polling is bounded by the
// ticket's own deadline (plus a small grace): once the server has reported
// a deadline, WaitBatch will not poll a doomed ticket forever — it makes
// one final probe past the deadline and then gives up with an error naming
// the ticket's state.
func (c *Client) WaitBatch(ctx context.Context, id string) (BatchStatus, error) {
	return c.waitBatch(ctx, id, nil)
}

// waitBatch is WaitBatch for a caller that may still hold the ticket's jobs
// (see status).
func (c *Client) waitBatch(ctx context.Context, id string, jobs []CompileJob) (BatchStatus, error) {
	interval := c.pollInterval
	var capC <-chan time.Time // fires past the ticket deadline + grace
	for {
		st, err := c.status(ctx, id, jobs)
		if err != nil {
			return BatchStatus{}, err
		}
		if st.State == wire.StateDone || st.State == wire.StateCanceled {
			return st, nil
		}
		if capC == nil && !st.Deadline.IsZero() {
			t := time.NewTimer(time.Until(st.Deadline.Add(waitBatchGrace)))
			defer t.Stop()
			capC = t.C
		}
		// The server's hint wins over the local ladder; clamp it into the
		// ladder's range so a misbehaving hint can neither busy-poll nor
		// park the client for minutes.
		wait := interval
		hinted := st.RetryAfter > 0
		if hinted {
			wait = min(max(st.RetryAfter, pollBaseInterval), pollMaxInterval)
		}
		// ±25% jitter around the chosen interval.
		wait = time.Duration(float64(wait) * (0.75 + 0.5*rand.Float64()))
		select {
		case <-time.After(wait):
		case <-capC:
			// The ticket outlived its own deadline; one last probe (the
			// server normally cancels it right at the deadline), then stop
			// polling a ticket that can no longer finish normally.
			st, err := c.status(ctx, id, jobs)
			if err == nil && (st.State == wire.StateDone || st.State == wire.StateCanceled) {
				return st, nil
			}
			if err != nil {
				return BatchStatus{}, err
			}
			return BatchStatus{}, fmt.Errorf(
				"clusched: ticket %s still %s past its deadline (+%v grace); giving up the poll",
				id, st.State, waitBatchGrace)
		case <-ctx.Done():
			return BatchStatus{}, ctx.Err()
		}
		if !hinted {
			if next := time.Duration(float64(interval) * pollGrowth); next < pollMaxInterval {
				interval = next
			} else {
				interval = pollMaxInterval
			}
		}
	}
}

// Cancel cancels a remote ticket.
func (c *Client) Cancel(ctx context.Context, id string) error { return c.ep.Cancel(ctx, id) }

// decodeStatus converts a poll answer; jobs, when the caller holds them,
// are the jobs its outcomes are decoded for.
func decodeStatus(ws wire.JobStatus, jobs []CompileJob) (BatchStatus, error) {
	st := BatchStatus{ID: ws.ID, State: ws.State}
	if ws.DeadlineMS > 0 {
		st.Deadline = time.UnixMilli(ws.DeadlineMS)
	}
	if ws.RetryAfterMS > 0 {
		st.RetryAfter = time.Duration(ws.RetryAfterMS) * time.Millisecond
	}
	if ws.Error != "" {
		st.Err = &wire.RemoteError{Msg: ws.Error}
	}
	if ws.Outcomes == nil {
		return st, nil
	}
	st.Outcomes = make([]CompileOutcome, len(ws.Outcomes))
	for i, wo := range ws.Outcomes {
		var job CompileJob
		if i < len(jobs) {
			job = jobs[i]
		}
		out, err := wo.DecodeFor(job)
		if err != nil {
			return BatchStatus{}, fmt.Errorf("outcome %d: %w", i, err)
		}
		st.Outcomes[i] = out
	}
	return st, nil
}
