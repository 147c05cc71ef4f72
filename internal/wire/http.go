package wire

// HTTP request/response bodies of the compilation service. They live in
// the codec package so the server (internal/service) and the clients (the
// root package, internal/cluster) share one vocabulary without importing
// each other.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"clusched/internal/driver"
)

// NoLoop is the query parameter a reader that holds the jobs it submitted
// puts on the endpoints that answer with outcomes (GET /batch/{id}/stream,
// GET /jobs/{id}, POST /compile?wait=1): the server then leaves each
// result's loop text out instead of echoing it back, and DecodeFor adopts
// the job's own graph. A server that predates the parameter ignores it and
// echoes; that decodes too.
const NoLoop = "loop=0"

// bodyPool lends the buffer an answer is read into before it is decoded;
// nothing decoded keeps a reference into it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ReadJobStatus reads an answer body whole and decodes it into *st.
func ReadJobStatus(r io.Reader, st *JobStatus) error {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return err
	}
	return DecodeJobStatus(buf.Bytes(), st)
}

// PostCompile is the unary exchange, shared by every remote backend: body —
// AppendJob of j — goes to POST base/compile?wait=1 with NoLoop, and the
// JobStatus that comes back must hold exactly one outcome, which is decoded
// and proven for j. timeout, when positive, bounds the exchange. An answer
// of 400 or above is handed to refused and its error returned as it is: each
// backend types refusals its own way.
func PostCompile(ctx context.Context, hc *http.Client, base string, timeout time.Duration, body []byte, j driver.Job,
	refused func(*http.Response) error) (driver.Outcome, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/compile?wait=1&"+NoLoop, bytes.NewReader(body))
	if err != nil {
		return driver.Outcome{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return driver.Outcome{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return driver.Outcome{}, refused(resp)
	}
	var st JobStatus
	if err := ReadJobStatus(resp.Body, &st); err != nil {
		return driver.Outcome{}, err
	}
	if len(st.Outcomes) != 1 {
		return driver.Outcome{}, fmt.Errorf("wire: server answered %d outcomes for one job (state %s, %s)",
			len(st.Outcomes), st.State, st.Error)
	}
	return st.Outcomes[0].DecodeFor(j)
}

// SubmitRequest asks the service to compile a batch. POST /batch accepts
// any batch size; POST /compile is the single-job convenience form and
// accepts a bare Job instead.
type SubmitRequest struct {
	Jobs []Job `json:"jobs"`
	// TimeoutMS bounds the batch's lifetime from submission (0 = the
	// server's default policy).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks the server to record an execution trace for this batch,
	// retrievable as Chrome trace-event JSON from GET /jobs/{id}/trace
	// once the ticket finishes. Servers that predate tracing ignore the
	// field (additive; the stream schema is unchanged).
	Trace bool `json:"trace,omitempty"`
}

// SubmitResponse returns the ticket for an accepted batch.
type SubmitResponse struct {
	ID string `json:"id"`
}

// Job states reported by JobStatus.State.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateCanceled = "canceled"
)

// JobStatus is the poll answer for one ticket (GET /jobs/{id}).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// NumJobs is the batch size.
	NumJobs int `json:"num_jobs"`
	// CreatedMS / StartedMS / FinishedMS are Unix milliseconds; zero when
	// the job has not reached that point.
	CreatedMS  int64 `json:"created_ms,omitempty"`
	StartedMS  int64 `json:"started_ms,omitempty"`
	FinishedMS int64 `json:"finished_ms,omitempty"`
	// DeadlineMS is the ticket's absolute deadline in Unix milliseconds
	// (0 = no deadline): pollers can bound their total waiting against it
	// instead of polling a doomed ticket forever.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// RetryAfterMS hints when a poller should check an unfinished ticket
	// again, from the server's own view of its backlog (0 = no hint; the
	// same hint rides the Retry-After response header, in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// Outcomes is present once the job is done (or canceled with partial
	// completions), index-aligned with the submitted jobs.
	Outcomes []Outcome `json:"outcomes,omitempty"`
	// Error summarizes the batch failure, if any (individual failures
	// stay in their outcomes).
	Error string `json:"error,omitempty"`
}

// CacheStats is the wire form of the engine's cache accounting.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	StoreHits uint64 `json:"store_hits"`
	// SemanticHits/SemanticStoreHits count lookups served by remapping a
	// cached result for an isomorphic loop (in-memory tier / persistent
	// store respectively).
	SemanticHits      uint64  `json:"semantic_hits"`
	SemanticStoreHits uint64  `json:"semantic_store_hits"`
	Entries           int     `json:"entries"`
	HitRate           float64 `json:"hit_rate"`
}

// StrategyInfo describes one registered scheduling strategy (GET
// /strategies).
type StrategyInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Default marks the strategy an empty options.strategy selects.
	Default bool `json:"default,omitempty"`
}

// StrategiesResponse is the GET /strategies answer, sorted by name.
type StrategiesResponse struct {
	Strategies []StrategyInfo `json:"strategies"`
}

// StrategyStats is the per-strategy slice of the service accounting: how
// many jobs each scheduling strategy has been asked to compile and how the
// cache served them.
type StrategyStats struct {
	// JobsSubmitted counts jobs accepted into the queue for this strategy.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	// CacheHits/CacheMisses/StoreHits/SemanticHits/SemanticStoreHits are
	// the engine's per-strategy cache counters (see CacheStats for their
	// semantics).
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	StoreHits         uint64 `json:"store_hits"`
	SemanticHits      uint64 `json:"semantic_hits"`
	SemanticStoreHits uint64 `json:"semantic_store_hits"`
}

// ServiceStats is the GET /stats answer.
type ServiceStats struct {
	// Queued and InFlight describe the moment; QueueDepth is the
	// admission-control bound.
	Queued     int `json:"queued"`
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// Ticket lifecycle counters.
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Canceled  uint64 `json:"canceled"`
	Rejected  uint64 `json:"rejected"`
	// JobsCompiled counts individual loop compilations served (cache hits
	// included); JobsPerSec is that over the uptime.
	JobsCompiled uint64  `json:"jobs_compiled"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	UptimeSec    float64 `json:"uptime_sec"`
	// InFlightCompiles is how many real (non-cached) compilations the
	// engine is running right now; MaxInFlight the engine-wide cap behind
	// -max-inflight (0 = unbounded). Together they are the backpressure
	// signal a fleet balancer reads.
	InFlightCompiles int `json:"inflight_compiles"`
	MaxInFlight      int `json:"max_inflight,omitempty"`
	// Cache is the shared engine's cache accounting (in-memory + disk).
	Cache CacheStats `json:"cache"`
	// Strategies breaks the traffic down by scheduling strategy, keyed on
	// the canonical strategy name.
	Strategies map[string]StrategyStats `json:"strategies,omitempty"`
	// SpecLanes reports the speculative-II lane tallies; present only when
	// the server runs with speculation enabled.
	SpecLanes *LaneStatsWire `json:"spec_lanes,omitempty"`
	// Draining reports a server in graceful shutdown.
	Draining bool `json:"draining,omitempty"`
}

// LaneStatsWire is the wire form of the engine's speculative-lane
// tallies (present in ServiceStats when speculation is configured).
type LaneStatsWire struct {
	// Raced counts extra lanes launched; Won those whose accepted II
	// became a result; Wasted those cancelled or discarded.
	Raced  uint64 `json:"raced"`
	Won    uint64 `json:"won"`
	Wasted uint64 `json:"wasted"`
}

// HealthResponse is the GET /healthz answer: build identity and uptime,
// so a probe (or an operator's curl) can tell which binary is serving.
type HealthResponse struct {
	// Status is "ok" while serving ("draining" answers 503 with an
	// ErrorResponse instead).
	Status string `json:"status"`
	// Version is the main module's version ("(devel)" for local builds);
	// Revision the VCS commit the binary was built from, when stamped.
	Version  string `json:"version,omitempty"`
	Revision string `json:"revision,omitempty"`
	// Dirty marks a build from a modified working tree.
	Dirty bool `json:"dirty,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string  `json:"go_version,omitempty"`
	UptimeSec float64 `json:"uptime_sec"`
}

// ErrorResponse is the body of every non-2xx service answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies queue-full rejections (429): when to try
	// again.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
