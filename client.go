package clusched

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"net/http"
	"strings"
	"time"

	"clusched/internal/wire"
)

// Client speaks to a clusched-serve compilation service; it is the remote
// implementation of Backend: a wire.Endpoint — the exchanges the fleet's
// nodes run too — plus the policy of a caller with one server. A queue-full
// refusal is a *QueueFullError, a stream the transport cuts resumes over the
// ticket's own stream, and an outcome that fails its proof is that job's
// error. Results come back through the wire codec, which rebuilds and
// re-verifies every schedule — a Result obtained remotely is as trustworthy
// as one compiled in-process, and carries the full Schedule and Placement (so
// kernels can be printed and pipelines expanded locally).
//
// The zero Client is not usable; call NewRemote.
type Client struct {
	// ep.Timeout bounds each unary exchange (see DefaultClientTimeout) and
	// each gap between two frames of a stream.
	ep wire.Endpoint
}

// DefaultClientTimeout bounds how long a remote backend waits on a server
// when NewRemote or NewCluster is not given WithTimeout: each unary exchange
// (a blocking compile, stats, health) as a whole, and on a stream the wait
// for the hello and every later gap between two frames. It is deliberately
// generous — a blocking /compile?wait=1 spans a full compilation — while
// still guaranteeing that a wedged server cannot hang a caller forever.
// WithTimeout(0) disables the bound.
const DefaultClientTimeout = 5 * time.Minute

// NewRemote builds the remote Backend: a client for the clusched-serve
// instance at base (e.g. "http://localhost:8357"). Client-level options
// (WithHTTPClient, WithTimeout) apply.
func NewRemote(base string, opts ...Option) *Client {
	s := applySettings("NewRemote", scopeClient, opts)
	c := &Client{ep: wire.Endpoint{Base: strings.TrimRight(base, "/"), HC: s.client.httpClient, Timeout: DefaultClientTimeout}}
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

// Stream implements Backend over the service's NDJSON push stream: it posts
// the batch, whose answer is its stream, and yields each outcome the moment
// the server finishes it — true server push, no polling. Every job yields
// exactly once; submit or transport failures surface as the outcome error of
// every job the stream had not yet delivered. A stream the transport cuts
// mid-batch is read once more from the ticket's own stream (the server keeps
// compiling the ticket and replays what it finished); a second cut, like a
// stream the server refuses, is an error. Breaking out of the iteration,
// cancelling ctx, or any ending short of the done frame cancels the ticket on
// the server; a success read after ctx is cancelled yields the cancellation.
func (c *Client) Stream(ctx context.Context, jobs []CompileJob) iter.Seq2[int, CompileOutcome] {
	return func(yield func(int, CompileOutcome) bool) {
		if len(jobs) == 0 {
			return
		}
		delivered := make([]bool, len(jobs))
		deliver := func(i int, out CompileOutcome, derr error) bool {
			if derr != nil {
				// An outcome that fails its proof is that job's error.
				out.Err = derr
			}
			if out.Err == nil && ctx.Err() != nil {
				// Read after the cancel: booked as cancelled, like every job
				// the stream had not delivered by then.
				out = CompileOutcome{Job: out.Job, Err: ctx.Err()}
			}
			return yield(i, out)
		}
		id, err := c.ep.Stream(ctx, jobs, delivered, deliver)
		if errors.Is(err, wire.ErrStreamCut) {
			// The batch is still alive on the server, and the work it did is not
			// lost. Its stream replays from the start; the delivered ledger
			// skips what this one carried, so the rest yields exactly once.
			err = c.ep.Resume(ctx, id, jobs, delivered, deliver)
		}
		if err == nil || errors.Is(err, wire.ErrConsumerStopped) {
			// Complete, or the consumer broke out of the iteration: yield
			// must not be called again.
			return
		}
		err = queueFull(err)
		for i := range jobs {
			if !delivered[i] && !yield(i, CompileOutcome{Job: jobs[i], Err: err}) {
				return
			}
		}
	}
}
