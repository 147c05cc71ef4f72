package cluster

import (
	"context"
	"errors"
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

// StatusError is a service answer of 400 or above, classified by code so
// dispatch can tell "this node is struggling" (retry elsewhere: 429, 5xx)
// from "this request is wrong" (permanent: the other 4xx — another node would
// reject it identically).
type StatusError = wire.StatusError

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

// HTTPNode is one clusched-serve instance as a fleet member: a wire.Endpoint
// — Do, Health and Stats are the endpoint's own — plus the fleet's policy for
// a run (Stream). In-flight windows, stealing, hedging and failover move
// whole runs, and a node's worker pool serves each as a sub-batch.
type HTTPNode struct{ wire.Endpoint }

// Do, Health and Stats are promoted: a signature that drifted would silently
// turn the cluster's probing or its stats rollup off.
var _ interface {
	Node
	Streamer
	HealthChecker
	StatsSource
} = (*HTTPNode)(nil)

// NewHTTPNode returns an HTTPNode for the server at base.
func NewHTTPNode(base string, hc *http.Client, timeout time.Duration) *HTTPNode {
	return &HTTPNode{wire.Endpoint{Base: strings.TrimRight(base, "/"), HC: hc, Timeout: timeout}}
}

// Stream implements Streamer: the run as one ticket (a run of one as one
// unary exchange), each outcome decoded and proven as its frame arrives. An
// outcome that fails its proof is not delivered and becomes the exchange's
// error, so it is compiled elsewhere. A cut stream is not resumed — what it
// did not deliver is the cluster's to fail over — so its ticket is
// cancelled like any other abandoned before its done frame (deliver refused,
// ctx done), but without making the failover wait for a node that may be gone.
func (n *HTTPNode) Stream(ctx context.Context, jobs []driver.Job, deliver func(k int, out driver.Outcome) bool) error {
	if len(jobs) == 1 {
		// The unary exchange, still a little cheaper than a stream of one.
		out, err := n.Do(ctx, jobs[0])
		if err == nil {
			deliver(0, out)
		}
		return err
	}
	var unproven error
	id, err := n.Endpoint.Stream(ctx, jobs, make([]bool, len(jobs)),
		func(k int, out driver.Outcome, derr error) bool {
			if derr != nil {
				unproven = derr
				return true
			}
			return deliver(k, out)
		})
	switch {
	case err == nil:
		err = unproven
	case errors.Is(err, wire.ErrStreamCut):
		go n.Disown(ctx, id) // ends by itself: Disown is bounded
	}
	return err
}
