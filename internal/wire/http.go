package wire

// HTTP request/response bodies of the compilation service, and the two
// exchanges every remote backend runs over them: PostCompile (one job, one
// request) and StreamBatch (one batch, one ticket, one NDJSON stream). They
// live in the codec package so the server (internal/service) and the clients
// (the root package, internal/cluster) share one vocabulary, and one copy of
// each exchange, without importing each other.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
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

// post sends body as the JSON of a POST; the caller closes the answer.
func post(ctx context.Context, hc *http.Client, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return hc.Do(req)
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
	resp, err := post(ctx, hc, base+"/compile?wait=1&"+NoLoop, body)
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

// SubmitBatch posts body — AppendSubmitRequest of a batch — to POST
// base/batch and returns the ticket. timeout and refused as in PostCompile.
func SubmitBatch(ctx context.Context, hc *http.Client, base string, timeout time.Duration, body []byte,
	refused func(*http.Response) error) (string, error) {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := post(ctx, hc, base+"/batch", body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return "", refused(resp)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	return sub.ID, err
}

// The two ways StreamBatch ends short of its done frame that are not
// failures of the server's answer.
var (
	// ErrStreamCut marks a transport failure after the stream was
	// successfully opened: the server knows the ticket and keeps compiling
	// it, so the reader may resume it over the poll path (Client.Stream) or
	// take the undelivered jobs elsewhere (the cluster). Deliberate server
	// answers (404 for an unknown ticket, protocol-violation frames, the idle
	// watchdog) are NOT cuts — resuming those would poll a ticket the server
	// disowned or a stream the reader cannot trust.
	ErrStreamCut = errors.New("clusched: stream cut mid-batch")
	// ErrConsumerStopped reports that yield returned false — not a failure,
	// just "stop reading". The ticket has been cancelled.
	ErrConsumerStopped = errors.New("clusched: stream consumer stopped")
)

// StreamBatch is the streaming exchange, shared by every remote backend the
// way PostCompile is the unary one: body — AppendSubmitRequest of jobs — is
// submitted (SubmitBatch), the ticket's GET base/batch/{id}/stream is opened
// with NoLoop, and every outcome frame is decoded and proven for its job and
// handed to yield the moment it arrives, up to the done frame. delivered, as
// long as jobs, is the caller's ledger: an index is marked when its frame
// arrives, whatever the frame decoded to, and no index is yielded twice. The
// err yield receives is DecodeFor's verdict on that frame: an outcome that
// arrived but could not be decoded or proven (out then holds only the job).
//
// A nil error means the done frame arrived and every job was delivered. A
// done frame with jobs still missing (a batch cancelled while queued, or
// retired early) returns the batch's terminal error, which is then the error
// of every undelivered job. ErrStreamCut and ErrConsumerStopped are described
// above; a refused submit returns refused's error, a refused stream the
// server's reason. The returned ticket is empty only when the submit failed.
//
// timeout bounds the submit and, on the stream — which as a whole lives as
// long as its batch — every gap between two frames. A ticket nobody will
// read to the end (yield stopped, or ctx done) is cancelled on the server,
// best effort, before StreamBatch returns.
func StreamBatch(ctx context.Context, hc *http.Client, base string, timeout time.Duration, body []byte, jobs []driver.Job,
	delivered []bool, yield func(int, driver.Outcome, error) bool, refused func(*http.Response) error) (string, error) {
	id, err := SubmitBatch(ctx, hc, base, timeout, body, refused)
	if err != nil {
		return "", err
	}
	err = readStream(ctx, hc, base, timeout, id, jobs, delivered, yield)
	if err != nil && (ctx.Err() != nil || errors.Is(err, ErrConsumerStopped)) {
		abandon(ctx, hc, base, id)
	}
	return id, err
}

// abandon best-effort cancels a ticket whose reader walked away, so the
// server stops compiling work nobody will read. It outlives ctx, which is
// typically already cancelled.
func abandon(ctx context.Context, hc *http.Client, base, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, base+"/jobs/"+id, nil)
	if err != nil {
		return
	}
	if resp, err := hc.Do(req); err == nil {
		resp.Body.Close() // the ticket may already be done; ignore the answer
	}
}

// nextLine reads one newline-terminated line of r. The slice is valid until
// the next call: r's own buffer, or *long when the line outgrows that. A
// last line without its newline is half a frame, whatever it parses as:
// io.ErrUnexpectedEOF.
func nextLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*long = (*long)[:0]
		for err == bufio.ErrBufferFull {
			*long = append(*long, line...)
			line, err = r.ReadSlice('\n')
		}
		*long = append(*long, line...)
		line = *long
	}
	if err == io.EOF && len(line) > 0 {
		err = io.ErrUnexpectedEOF
	}
	return line, err
}

// readStream opens the NDJSON endpoint of a submitted ticket and yields
// outcome frames until the done frame; see StreamBatch for what it returns.
func readStream(ctx context.Context, hc *http.Client, base string, timeout time.Duration, id string, jobs []driver.Job,
	delivered []bool, yield func(int, driver.Outcome, error) bool) error {
	// No unary timeout here: the stream lives exactly as long as its
	// batch. ctx still cancels it at any moment.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/batch/"+id+"/stream?"+NoLoop, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A refusal — typically 404 for a ticket the server no longer knows
		// (restart, retention pruning) — is a failure of the undelivered
		// jobs, with the server's reason when it sent one.
		var er ErrorResponse
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err == nil && er.Error != "" {
			return fmt.Errorf("clusched: service: %s", er.Error)
		}
		return fmt.Errorf("clusched: stream answered %s", resp.Status)
	}

	// The stream is exempt from the unary timeout as a whole — it lives as
	// long as its batch — but each inter-frame gap is bounded: a server
	// that wedges (or a connection that dies without an RST) would
	// otherwise hang the caller forever. The watchdog closes the body,
	// which unblocks the read with an error we translate below.
	var (
		timedOut atomic.Bool
		idle     *time.Timer
	)
	if timeout > 0 {
		idle = time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			resp.Body.Close()
		})
		defer idle.Stop()
	}

	// One frame per line, every line decoded into the same Frame: its
	// memory is recycled from outcome to outcome, and DecodeFor copies what
	// the outcome keeps.
	lines := bufio.NewReaderSize(resp.Body, 64<<10)
	var (
		f        Frame
		long     []byte // nextLine's memory for a line longer than the reader's
		batchErr error
	)
	for sawDone := false; !sawDone; {
		line, err := nextLine(lines, &long)
		if err == nil {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			err = DecodeFrame(line, &f)
		}
		if err != nil {
			if timedOut.Load() {
				return fmt.Errorf("clusched: stream for ticket %s idle for %v, giving up", id, timeout)
			}
			// The server had accepted the stream (200, frames flowing), so
			// this is the transport dying mid-batch, not the server refusing
			// the ticket.
			if errors.Is(err, io.EOF) {
				return fmt.Errorf("%w: ticket %s ended before its done frame", ErrStreamCut, id)
			}
			return fmt.Errorf("%w: ticket %s: %v", ErrStreamCut, id, err)
		}
		if idle != nil {
			idle.Reset(timeout)
		}
		// Unknown frame types and too-new hellos fail typed
		// (*UnknownFrameError, *SchemaError): a newer protocol is an explicit
		// error, never silently misread.
		if err := f.Validate(); err != nil {
			return err
		}
		switch f.Type {
		case FrameHello:
			if f.Total != len(jobs) {
				return fmt.Errorf("clusched: stream for ticket %s announces %d jobs, submitted %d", id, f.Total, len(jobs))
			}
		case FrameOutcome:
			if f.Index >= len(jobs) {
				return fmt.Errorf("clusched: stream outcome for job %d of a %d-job batch", f.Index, len(jobs))
			}
			if delivered[f.Index] {
				return fmt.Errorf("clusched: stream delivered job %d twice", f.Index)
			}
			out, derr := f.Outcome.DecodeFor(jobs[f.Index])
			if derr != nil {
				out = driver.Outcome{Job: jobs[f.Index]}
			}
			delivered[f.Index] = true
			if !yield(f.Index, out, derr) {
				return ErrConsumerStopped
			}
		case FrameDone:
			if f.Error != "" {
				batchErr = &RemoteError{Msg: f.Error}
			}
			sawDone = true
		}
	}
	// Jobs the server never delivered (a batch cancelled while queued, or
	// retired early) inherit the batch's terminal error.
	for _, ok := range delivered {
		if !ok {
			if batchErr == nil {
				batchErr = errors.New("clusched: stream finished without delivering this job")
			}
			return batchErr
		}
	}
	return nil
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
