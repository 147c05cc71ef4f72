package wire

// HTTP request/response bodies of the compilation service, and Endpoint: the
// one piece of code that speaks HTTP to a clusched-serve. It lives in the
// codec package so the server (internal/service) and the remote backends
// (Client in the root package, HTTPNode in internal/cluster) share one
// vocabulary and one copy of each exchange without importing each other; a
// backend adds only what a refusal, a cut or an unproven outcome means to it.

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"clusched/internal/driver"
)

// NoLoop is the query parameter a reader that holds the jobs it submitted
// puts on the endpoints that answer with outcomes (POST /batch streamed, GET
// /batch/{id}/stream, GET /jobs/{id}, POST /compile?wait=1): the server then
// leaves each result's loop text out instead of echoing it back, and
// DecodeFor adopts the job's own graph. A server that predates the parameter
// ignores it and echoes; that decodes too.
const NoLoop = "loop=0"

// NDJSON is the media type of a batch stream. A POST /batch whose Accept
// names it is answered with the ticket's stream itself, not with the ticket.
const NDJSON = "application/x-ndjson"

// bodyPool lends the buffer an answer is read into before it is decoded;
// nothing decoded keeps a reference into it.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// linesPool lends readStream its line reader.
var linesPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

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

// Endpoint is one clusched-serve instance as a remote backend reaches it.
type Endpoint struct {
	// Base is the server root, e.g. "http://10.0.0.7:8357", no trailing slash.
	Base string
	// HC is the HTTP client (shared across endpoints is fine; nil means
	// http.DefaultClient). Its own Timeout stays zero: a stream outlives any.
	HC *http.Client
	// Timeout bounds each unary exchange (a compile exchange spans the whole
	// compilation, so this is a straggler bound, not a latency bound) and, on
	// a stream, each gap between two frames; 0 means no bound beyond the
	// caller's context.
	Timeout time.Duration
}

// StatusError is an answer of 400 or above, classified by code so a backend
// can tell "this server is struggling" (429, 5xx) from "this request is
// wrong" (the other 4xx — any server would refuse it identically).
type StatusError struct {
	Code int
	// Msg is the service's reason, when the answer carried one.
	Msg string
	// RetryAfter is the hint of a queue-full rejection (429).
	RetryAfter time.Duration
}

// Error implements error.
func (e *StatusError) Error() string { return "clusched: service answered " + e.answer() }

// answer renders the code and, when there is one, the reason.
func (e *StatusError) answer() string {
	if e.Msg != "" {
		return fmt.Sprintf("%d: %s", e.Code, e.Msg)
	}
	return strconv.Itoa(e.Code)
}

// request sends one request (body, when non-nil, its encoded JSON; accept the
// answer it asks for, if any) and returns the answer, whose body the caller
// closes. An answer of 400 or above comes back as a *StatusError instead, its
// reason read from at most 64 KiB of body. It applies no timeout: see Call.
func (e Endpoint) request(ctx context.Context, method, path string, body []byte, accept string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, e.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	hc := e.HC
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 400 {
		return resp, nil
	}
	defer resp.Body.Close()
	se := &StatusError{Code: resp.StatusCode}
	var er ErrorResponse
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&er) == nil {
		se.Msg, se.RetryAfter = er.Error, time.Duration(er.RetryAfterMS)*time.Millisecond
	}
	return nil, se
}

// Call is one unary exchange, bounded by Timeout: the answer's body goes to
// decode (nil to ignore it).
func (e Endpoint) Call(ctx context.Context, method, path string, body []byte, decode func(io.Reader) error) error {
	if e.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.Timeout)
		defer cancel()
	}
	resp, err := e.request(ctx, method, path, body, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if decode == nil {
		return nil
	}
	return decode(resp.Body)
}

// Health reports whether the service is up and accepting work (GET /healthz).
func (e Endpoint) Health(ctx context.Context) error {
	return e.Call(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Stats fetches the service statistics (GET /stats).
func (e Endpoint) Stats(ctx context.Context) (ServiceStats, error) {
	var st ServiceStats
	err := e.Call(ctx, http.MethodGet, "/stats", nil, func(r io.Reader) error { return json.NewDecoder(r).Decode(&st) })
	return st, err
}

// Disown best-effort cancels a ticket nobody will read to its done frame
// (DELETE /jobs/{id}), so the server stops compiling it. It outlives ctx,
// which is typically already cancelled, by at most ten seconds.
func (e Endpoint) Disown(ctx context.Context, id string) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	// The ticket may already be done, or the server gone.
	_ = e.Call(ctx, http.MethodDelete, "/jobs/"+id, nil, nil)
}

// Do is the unary exchange: j goes to POST /compile?wait=1 with NoLoop,
// blocking until the server finishes it, and the JobStatus that comes back
// must hold exactly one outcome, which is decoded and proven for j — as
// trustworthy as a local compilation. The error is the exchange's; a
// compilation failure travels inside the outcome.
func (e Endpoint) Do(ctx context.Context, j driver.Job) (driver.Outcome, error) {
	body, err := AppendJob(nil, j)
	if err != nil {
		// The refusal any server would answer with: the request's fault.
		return driver.Outcome{}, &StatusError{Code: http.StatusBadRequest, Msg: err.Error()}
	}
	var st JobStatus
	err = e.Call(ctx, http.MethodPost, "/compile?wait=1&"+NoLoop, body, func(r io.Reader) error { return ReadJobStatus(r, &st) })
	if err != nil {
		return driver.Outcome{}, err
	}
	if len(st.Outcomes) != 1 {
		return driver.Outcome{}, fmt.Errorf("wire: server answered %d outcomes for one job (state %s, %s)",
			len(st.Outcomes), st.State, st.Error)
	}
	return st.Outcomes[0].DecodeFor(j)
}

// The ways Stream ends short of its done frame that are not failures of the
// server's answer.
var (
	// ErrStreamCut marks a transport failure after an answer named the
	// ticket: the server keeps compiling it, so the reader may read its stream
	// once more (Resume, as Client.Stream does) or take the undelivered jobs
	// elsewhere (the cluster). Deliberate server answers (404 for an unknown
	// ticket, protocol-violation frames, the idle watchdog) are NOT cuts —
	// resuming those would reopen a ticket the server disowned or a stream the
	// reader cannot trust — nor is a failure before any answer named the
	// ticket.
	ErrStreamCut = errors.New("clusched: stream cut mid-batch")
	// ErrConsumerStopped reports that yield returned false: "stop reading".
	ErrConsumerStopped = errors.New("clusched: stream consumer stopped")
	// ErrFrameTooLong reports a stream line over maxFrameBytes: a peer
	// withholding the newline, not one to resume.
	ErrFrameTooLong = errors.New("clusched: stream frame too long")
)

// maxFrameBytes bounds one line of a stream. A variable only so that a test
// can reach the bound without writing it out.
var maxFrameBytes = 64 << 20

// errIdle is the cause the watchdog cancels a silent streaming exchange with.
var errIdle = errors.New("idle")

// Stream is the streaming exchange, one request: jobs go to POST /batch with
// NoLoop and Accept: NDJSON, the answer is the ticket's stream (its hello
// names the ticket), and every outcome frame is decoded and proven for its job
// and handed to yield the moment it arrives, up to the done frame. From a
// server that answers with the ticket instead, it reads GET
// /batch/{id}/stream. delivered, as long as jobs, is the caller's ledger: an
// index is marked when its frame arrives, whatever the frame decoded to, and
// no index is yielded twice. The err yield receives is DecodeFor's verdict on
// that frame: an outcome that arrived but could not be decoded or proven (out
// then holds only the job).
//
// A nil error means the done frame arrived and every job was delivered. A
// done frame with jobs still missing (a batch cancelled while queued, or
// retired early) returns the batch's terminal error, which is then the error
// of every undelivered job. An end before any answer named the ticket returns
// none; a refused submit is a *StatusError. A refused stream is not one: the
// server accepted the ticket and has since forgotten it (restart, retention),
// which says nothing about the request, so the run is worth taking elsewhere.
//
// Timeout bounds the wait for the hello and every later gap between two
// frames. A ticket that will not be read to its done frame is cancelled on the
// server before Stream returns (Disown), whatever ended the read — except a
// cut, where the reader decides: it may Resume the ticket, or Disown it.
func (e Endpoint) Stream(ctx context.Context, jobs []driver.Job, delivered []bool,
	yield func(int, driver.Outcome, error) bool) (string, error) {
	body, err := AppendSubmitRequest(nil, jobs)
	if err != nil {
		return "", &StatusError{Code: http.StatusBadRequest, Msg: err.Error()} // as in Do
	}
	return e.read(ctx, "", body, jobs, delivered, nil, yield)
}

// Resume reads the stream of ticket id once more, after Stream returned
// ErrStreamCut for it: GET /batch/{id}/stream with NoLoop, which replays every
// outcome the ticket has finished and then follows it to its done frame.
// jobs, delivered and yield are the cut Stream's. An outcome delivered before
// the cut is skipped once on the replay; any other outcome frame repeated
// within the stream is still an error. Resume ends as Stream does, except that
// there is no second resume: a cut is Disowned like every other ending short
// of the done frame, and a refused stream (404: the server forgot the ticket)
// is that ending's error.
func (e Endpoint) Resume(ctx context.Context, id string, jobs []driver.Job, delivered []bool,
	yield func(int, driver.Outcome, error) bool) error {
	_, err := e.read(ctx, id, nil, jobs, delivered, slices.Clone(delivered), yield)
	if errors.Is(err, ErrStreamCut) {
		e.Disown(ctx, id)
	}
	return err
}

// read is the one frame loop behind Stream, its ticket-only fallback and
// Resume: it opens the answer (see exchange.open), reads it with readStream
// under one idle watchdog and settles the ending. had, when non-nil, marks the
// outcomes the reader already holds.
func (e Endpoint) read(ctx context.Context, id string, body []byte, jobs []driver.Job, delivered, had []bool,
	yield func(int, driver.Outcome, error) bool) (string, error) {
	// One watchdog bounds every silence of the exchange: a server that wedges
	// (or a connection that dies without an RST) would otherwise hang the
	// caller forever. It cancels the exchange, which unblocks whatever waits.
	xctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	x := exchange{Endpoint: e, ctx: xctx, id: id, had: had}
	if e.Timeout > 0 {
		x.idle = time.AfterFunc(e.Timeout, func() { cancel(errIdle) })
		defer x.idle.Stop()
	}
	resp, err := x.open(body)
	var reason string
	if err != nil {
		err = x.ended(err)
	} else {
		defer resp.Body.Close()
		reason, err = x.readStream(resp.Body, jobs, delivered, yield)
	}
	if err != nil {
		if x.id != "" && !errors.Is(err, ErrStreamCut) {
			e.Disown(ctx, x.id)
		}
		return x.id, err
	}
	// Jobs the server never delivered inherit the batch's terminal error.
	for _, ok := range delivered {
		if !ok {
			if reason != "" {
				return x.id, &RemoteError{Msg: reason}
			}
			return x.id, errors.New("clusched: stream finished without delivering this job")
		}
	}
	return x.id, nil
}

// exchange is one streaming read in flight: its context, which the caller's
// ending or the watchdog cancels, and the ticket once an answer named it.
type exchange struct {
	Endpoint
	ctx  context.Context
	idle *time.Timer // nil without a Timeout
	id   string
	// had marks the outcomes a resumed reader already holds; each is skipped
	// once, and cleared, when the replay carries it (nil on a first read).
	had []bool
}

// open sends the exchange's request. With a body it posts the batch, whose
// answer is its stream — or, from a server that predates the streamed answer,
// the ticket, whose stream is one more request; without one it opens the
// stream of the ticket the exchange already names.
func (x *exchange) open(body []byte) (*http.Response, error) {
	if body != nil {
		resp, err := x.request(x.ctx, http.MethodPost, "/batch?"+NoLoop, body, NDJSON)
		if err != nil || resp.StatusCode != http.StatusAccepted {
			return resp, err
		}
		var sub SubmitResponse
		err = json.NewDecoder(resp.Body).Decode(&sub)
		resp.Body.Close()
		if x.id = sub.ID; err != nil {
			return nil, err
		}
	}
	resp, err := x.request(x.ctx, http.MethodGet, "/batch/"+x.id+"/stream?"+NoLoop, nil, "")
	var se *StatusError
	if errors.As(err, &se) {
		err = fmt.Errorf("clusched: stream answered %s", se.answer()) // deliberately untyped: see Stream
	}
	return resp, err
}

// ended names what ended the exchange when its context did, and otherwise
// returns err.
func (x *exchange) ended(err error) error {
	if context.Cause(x.ctx) == errIdle {
		return fmt.Errorf("clusched: stream for ticket %s idle for %v, giving up", cmp.Or(x.id, "(unnamed)"), x.Timeout)
	}
	return cmp.Or(x.ctx.Err(), err)
}

// nextLine reads one newline-terminated line of r, of at most maxFrameBytes
// (ErrFrameTooLong beyond). The slice is valid until the next call: r's own
// buffer, or *long when the line outgrows that. A last line without its
// newline is half a frame, whatever it parses as: io.ErrUnexpectedEOF.
func nextLine(r *bufio.Reader, long *[]byte) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		*long = (*long)[:0]
		for err == bufio.ErrBufferFull {
			if len(*long)+len(line) > maxFrameBytes {
				return nil, ErrFrameTooLong
			}
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

// readStream reads a batch stream's frames from body and yields its outcomes
// until the done frame, whose error text it returns; the hello names the
// ticket when no answer has yet. A non-nil error means the read ended short
// of the done frame; see Stream.
func (x *exchange) readStream(body io.Reader, jobs []driver.Job, delivered []bool,
	yield func(int, driver.Outcome, error) bool) (string, error) {
	// One frame per line, every line decoded into the same Frame: its
	// memory is recycled from outcome to outcome, and DecodeFor copies what
	// the outcome keeps.
	lines := linesPool.Get().(*bufio.Reader)
	lines.Reset(body)
	defer func() {
		lines.Reset(nil) // the pool must not hold the connection
		linesPool.Put(lines)
	}()
	var (
		f    Frame
		long []byte // nextLine's memory for a line longer than the reader's
	)
	for {
		line, err := nextLine(lines, &long)
		if err == nil {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			err = DecodeFrame(line, &f)
		}
		switch {
		case err == nil:
		case x.ctx.Err() != nil:
			return "", x.ended(err)
		case errors.Is(err, ErrFrameTooLong):
			return "", fmt.Errorf("%w: ticket %s: a line over %d bytes", err, x.id, maxFrameBytes)
		case x.id == "":
			// Nothing named the ticket: there is none to resume or cancel.
			return "", fmt.Errorf("clusched: batch answer ended before its hello: %v", err)
		default:
			// The server had accepted the stream (200, frames flowing), so this
			// is the transport dying mid-batch — io.EOF: before the done frame —
			// not the server refusing the ticket.
			return "", fmt.Errorf("%w: ticket %s: %v", ErrStreamCut, x.id, err)
		}
		if x.idle != nil {
			x.idle.Reset(x.Timeout)
		}
		// Unknown frame types and too-new hellos fail typed
		// (*UnknownFrameError, *SchemaError): a newer protocol is an explicit
		// error, never silently misread.
		if err := f.Validate(); err != nil {
			return "", err
		}
		switch f.Type {
		case FrameHello:
			x.id = cmp.Or(x.id, f.ID)
			if f.Total != len(jobs) {
				return "", fmt.Errorf("clusched: stream for ticket %s announces %d jobs, submitted %d", x.id, f.Total, len(jobs))
			}
		case FrameOutcome:
			if f.Index >= len(jobs) {
				return "", fmt.Errorf("clusched: stream outcome for job %d of a %d-job batch", f.Index, len(jobs))
			}
			if x.had != nil && x.had[f.Index] {
				x.had[f.Index] = false // replayed: the reader has it
				continue
			}
			if delivered[f.Index] {
				return "", fmt.Errorf("clusched: stream delivered job %d twice", f.Index)
			}
			out, derr := f.Outcome.DecodeFor(jobs[f.Index])
			if derr != nil {
				out = driver.Outcome{Job: jobs[f.Index]}
			}
			delivered[f.Index] = true
			if !yield(f.Index, out, derr) {
				return "", ErrConsumerStopped
			}
		case FrameDone:
			return f.Error, nil
		}
	}
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
