package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"clusched/internal/driver"
	"clusched/internal/wire"
)

// Node is one compilation server as the cluster sees it: a dispatch target.
// The interface is deliberately minimal — routing, failover, hedging and
// stealing are the cluster's business, not the node's — and is satisfied by
// HTTPNode (a clusched-serve instance) as well as by any in-process fake a
// test cares to write.
type Node interface {
	// Do compiles one job. The error return is the *transport* verdict:
	// non-nil means the node could not answer (connection refused, cut
	// stream, 5xx) and the job may be retried elsewhere. A compilation
	// failure is a legitimate, deterministic answer and travels inside
	// the Outcome instead — retrying it on another node would only
	// recompute the same failure.
	Do(ctx context.Context, j driver.Job) (driver.Outcome, error)
}

// Streamer is implemented by nodes that take a run — several jobs — as one
// exchange. The cluster only ever dispatches runs; a node without the method
// is handed its run one Do at a time (doRun).
type Streamer interface {
	// Stream compiles jobs as one exchange and hands each outcome to
	// deliver, with the job's index in jobs, the moment it arrives — at most
	// once per job. The error is Do's transport verdict on every job that
	// was not delivered; nil means all were. When deliver returns false
	// nobody wants the rest of the run: the node abandons the exchange,
	// cancelling whatever it opened remotely, and returns (what, nobody
	// reads). It does the same when ctx is done.
	Stream(ctx context.Context, jobs []driver.Job, deliver func(k int, out driver.Outcome) bool) error
}

// doRun hands a run to a node: as one exchange when the node streams,
// otherwise job by job in order, stopping at the first transport error.
func doRun(ctx context.Context, n Node, jobs []driver.Job, deliver func(k int, out driver.Outcome) bool) error {
	if s, ok := n.(Streamer); ok {
		return s.Stream(ctx, jobs, deliver)
	}
	for k, j := range jobs {
		out, err := n.Do(ctx, j)
		if err != nil {
			return err
		}
		if !deliver(k, out) {
			return nil
		}
	}
	return nil
}

// HealthChecker is implemented by nodes that can be probed; the cluster's
// membership loop uses it to eject and readmit members.
type HealthChecker interface {
	Health(ctx context.Context) error
}

// StatsSource is implemented by nodes that expose service statistics; the
// fleet-wide rollup (Cluster.FleetStats) reads it.
type StatsSource interface {
	Stats(ctx context.Context) (wire.ServiceStats, error)
}

// StatusError is a non-2xx service answer, classified by code so dispatch
// can tell "this node is struggling" (retry elsewhere: 429, 5xx) from
// "this request is wrong" (permanent: the other 4xx — another node would
// reject it identically).
type StatusError struct {
	Code int
	Msg  string
}

// Error implements error.
func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("cluster: node answered %d: %s", e.Code, e.Msg)
	}
	return fmt.Sprintf("cluster: node answered %d", e.Code)
}

// retryable reports whether a transport error is worth retrying on another
// member. Network-level failures (refused, reset, EOF, timeouts) always
// are; typed service answers only when they describe the node's state
// rather than the request's validity.
func retryable(err error) bool {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests ||
			se.Code == http.StatusRequestTimeout ||
			se.Code >= 500
	}
	return true
}

// HTTPNode speaks to one clusched-serve instance. The cluster hands it runs:
// a run goes out as one ticket — POST /batch, then the ticket's NDJSON stream
// read to its done frame, the exchange Client.Stream speaks
// (wire.StreamBatch) — and a run of one as one POST /compile?wait=1
// (wire.PostCompile). In-flight windows, stealing, hedging and failover
// therefore move whole runs, and a node's worker pool serves each as a
// sub-batch.
type HTTPNode struct {
	// Base is the server root, e.g. "http://10.0.0.7:8357".
	Base string
	// HC is the HTTP client (shared across nodes is fine); nil uses a
	// default client.
	HC *http.Client
	// Timeout bounds each unary exchange (a compile exchange spans the
	// whole compilation, so this is a straggler bound, not a latency bound)
	// and, on a run's stream, each gap between two outcomes; 0 means no
	// bound beyond the caller's context.
	Timeout time.Duration
}

// NewHTTPNode returns an HTTPNode for the server at base.
func NewHTTPNode(base string, hc *http.Client, timeout time.Duration) *HTTPNode {
	return &HTTPNode{Base: strings.TrimRight(base, "/"), HC: hc, Timeout: timeout}
}

func (n *HTTPNode) client() *http.Client {
	if n.HC != nil {
		return n.HC
	}
	return http.DefaultClient
}

// statusError turns a non-2xx answer into a *StatusError carrying the
// service's error message.
func statusError(resp *http.Response) error {
	se := &StatusError{Code: resp.StatusCode}
	var er wire.ErrorResponse
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); derr == nil {
		se.Msg = er.Error
	}
	return se
}

// get is one bounded GET exchange decoding a JSON answer into out (nil to
// ignore the body); non-2xx answers come back as *StatusError.
func (n *HTTPNode) get(ctx context.Context, path string, out any) error {
	if n.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := n.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return statusError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Do implements Node over the unary exchange every remote backend shares
// (wire.PostCompile), blocking until the server finishes the job. The wire
// decode re-verifies the schedule, so the outcome is as trustworthy as a
// local compilation.
func (n *HTTPNode) Do(ctx context.Context, j driver.Job) (driver.Outcome, error) {
	body, err := wire.AppendJob(nil, j)
	if err != nil {
		// An unencodable job is the request's fault, never the node's.
		return driver.Outcome{}, &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	return wire.PostCompile(ctx, n.client(), n.Base, n.Timeout, body, j, statusError)
}

// Stream implements Streamer: the run as one ticket, each outcome decoded
// and proven as its frame arrives. An outcome that fails its proof is not
// delivered and becomes the exchange's error, so it is compiled elsewhere. A
// stream that is cut is not resumed by polling — what it did not deliver is
// the cluster's to fail over — and a ticket abandoned before its done frame
// (deliver refused, ctx done) is cancelled on the server.
func (n *HTTPNode) Stream(ctx context.Context, jobs []driver.Job, deliver func(k int, out driver.Outcome) bool) error {
	if len(jobs) == 1 {
		// One exchange, not two.
		out, err := n.Do(ctx, jobs[0])
		if err == nil {
			deliver(0, out)
		}
		return err
	}
	body, err := wire.AppendSubmitRequest(nil, jobs, 0, false)
	if err != nil {
		return &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	var unproven error
	_, err = wire.StreamBatch(ctx, n.client(), n.Base, n.Timeout, body, jobs, make([]bool, len(jobs)),
		func(k int, out driver.Outcome, derr error) bool {
			if derr != nil {
				unproven = derr
				return true
			}
			return deliver(k, out)
		}, statusError)
	if err == nil {
		err = unproven
	}
	return err
}

// Health implements HealthChecker (GET /healthz).
func (n *HTTPNode) Health(ctx context.Context) error {
	return n.get(ctx, "/healthz", nil)
}

// Stats implements StatsSource (GET /stats).
func (n *HTTPNode) Stats(ctx context.Context) (wire.ServiceStats, error) {
	var st wire.ServiceStats
	err := n.get(ctx, "/stats", &st)
	return st, err
}
