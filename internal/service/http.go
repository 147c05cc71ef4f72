package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// Handler returns the service's HTTP front end:
//
//	POST   /compile            one wire.Job → ticket (or the finished status with ?wait=1)
//	POST   /batch              wire.SubmitRequest → ticket (or, with Accept:
//	                           application/x-ndjson, the ticket's stream itself)
//	GET    /batch/{id}/stream  NDJSON outcome stream: hello, one outcome frame
//	                           per finished job as it completes, done
//	GET    /jobs/{id}          ticket status, outcomes once finished
//	GET    /jobs/{id}/trace    the ticket's execution trace (Chrome trace-event JSON)
//	DELETE /jobs/{id}          cancel
//	GET    /strategies         wire.StrategiesResponse: the registered scheduling strategies
//	GET    /stats              wire.ServiceStats (with per-strategy counters)
//	GET    /metrics            Prometheus text exposition of the same registry
//	GET    /healthz            build info + uptime when serving, 503 while draining
//
// Bodies are JSON. The endpoints that answer with outcomes (either stream,
// /jobs/{id} and /compile?wait=1) take loop=0: a reader that still holds the
// jobs it submitted asks the server not to echo each loop's text back inside
// its result (an absent result.loop means "the job's"). Refusals are JSON
// answers, a streamed POST /batch's too: a submit beyond QueueDepth
// unfinished tickets answers 429 with a Retry-After header and a
// wire.ErrorResponse carrying the same hint.
// Jobs naming an unregistered strategy are rejected at decode time (400).
//
// Every request gets an ID (X-Request-ID response header, echoed from the
// client's own header when present); with Config.AccessLog each request
// additionally emits one structured log line.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", s.handleCompile)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("GET /batch/{id}/stream", s.handleBatchStream)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /strategies", s.handleStrategies)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s.instrument(mux)
}

// reqSeq numbers requests for the generated request IDs.
var reqSeq atomic.Uint64

// statusRecorder captures the response status for the access log. It
// forwards Flush so the NDJSON stream endpoint keeps pushing frames
// through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the mux with the request-ID, response-count and
// access-log middleware.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			id = fmt.Sprintf("req-%06d", reqSeq.Add(1))
		}
		w.Header().Set("X-Request-ID", id)
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		s.metrics.httpRequests.With(strconv.Itoa(rec.status)).Inc()
		if s.cfg.AccessLog {
			s.logger.Info("request",
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"duration", time.Since(start),
				"request_id", id)
		}
	})
}

// maxRequestBody bounds request bodies (a 678-loop suite batch is ~2 MB;
// 64 MB leaves room for much larger loops without accepting unbounded
// uploads).
const maxRequestBody = 64 << 20

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, wire.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// submitHTTP funnels both endpoints through the same admission path (nil: refused and answered).
func (s *Server) submitHTTP(w http.ResponseWriter, jobs []driver.Job, opts SubmitOptions) *ticket {
	t, err := s.submit(jobs, opts)
	if err == nil {
		return t
	}
	var full *ErrQueueFull
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds()+1)))
		writeJSON(w, http.StatusTooManyRequests, wire.ErrorResponse{
			Error:        err.Error(),
			RetryAfterMS: full.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusBadRequest, "%v", err)
	}
	return nil
}

// readBody reads a request body whole, bounded by maxRequestBody, into a
// buffer sized once from the announced length.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxRequestBody {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that finds EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody))
	return buf.Bytes(), err
}

// wantsLoop reports whether results should carry their loop text: always,
// unless the reader asked with loop=0.
func wantsLoop(q url.Values) bool { return q.Get("loop") != "0" }

// boolParam reads an optional boolean query parameter; absent is false.
func boolParam(q url.Values, name string) (bool, error) {
	v := q.Get(name)
	if v == "" {
		return false, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, fmt.Errorf("bad %s parameter %q", name, v)
	}
	return b, nil
}

// handleCompile accepts one wire.Job. With a true wait (wait=1) it blocks
// until the compilation finishes and answers with the full wire.JobStatus;
// without one, or with a false one, it answers 202 with the ticket. wait
// and trace are booleans as strconv.ParseBool reads them; any other value
// is 400.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var wj wire.Job
	body, err := readBody(w, r)
	if err == nil {
		err = wire.DecodeJob(body, &wj)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad job: %v", err)
		return
	}
	jobs, err := wire.DecodeJobs([]wire.Job{wj})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	query := r.URL.Query()
	trace, err := boolParam(query, "trace")
	var wait bool
	if err == nil {
		wait, err = boolParam(query, "wait")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t := s.submitHTTP(w, jobs, SubmitOptions{Trace: trace})
	if t == nil {
		return
	}
	if !wait {
		writeJSON(w, http.StatusAccepted, wire.SubmitResponse{ID: t.id})
		return
	}
	st, err := s.Wait(r.Context(), t.id)
	if err != nil {
		// The client went away, and the ticket's ID with it — it travels
		// only in the answer that will not be sent — so nobody can poll
		// this ticket: stop it rather than compile for no one.
		t.cancel(errCanceled)
		writeError(w, http.StatusRequestTimeout, "%v", err)
		return
	}
	writeStatus(w, st, 0, wantsLoop(query))
}

// maxTimeoutMS is the largest timeout_ms a time.Duration holds.
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// handleBatch admits a batch as a pipeline: once the body's envelope is
// walked the ticket starts, and its jobs are decoded and admitted one by
// one while the engine compiles the ones before. The answer — 202 with the
// ticket, or the stream's hello — is written after the last job is
// admitted, so every refusal is the one a decode of the whole body first
// would give, in that order of precedence: a body or job defect is 400
// whatever the queue holds, then an out-of-range timeout_ms, an empty
// batch, a full server (429) and a draining one (503).
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	var d *wire.SubmitDecoder
	if err == nil {
		d, err = wire.NewSubmitDecoder(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	t := s.admit(w, r, d, len(body))
	if t == nil {
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), wire.NDJSON) {
		writeJSON(w, http.StatusAccepted, wire.SubmitResponse{ID: t.id})
		return
	}
	s.streamTicket(w, r, t, false)
}

// admit decodes and admits the jobs of a walked batch body of size bytes
// and returns its ticket, or nil when the batch was refused and answered. A
// batch the server takes at once is admitted a job at a time behind the
// ticket's gate. Any other batch is decoded whole before it is judged, and
// so is one with more jobs than its size can hold as jobs that decode: a
// ticket reserves room for every job, which such a batch will not fill.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, d *wire.SubmitDecoder, size int) *ticket {
	// A negative timeout would run the ticket with no deadline at all, and
	// one past maxTimeoutMS would wrap negative as a Duration.
	inRange := 0 <= d.TimeoutMS && d.TimeoutMS <= maxTimeoutMS
	opts := SubmitOptions{Timeout: time.Duration(d.TimeoutMS) * time.Millisecond, Trace: d.Trace}
	var t *ticket
	if inRange && d.Len > 0 && d.Len <= size/wire.MinJobBytes {
		t, _ = s.enqueue(make([]driver.Job, d.Len), opts)
	}
	if t == nil {
		jobs := make([]driver.Job, d.Len)
		for i := range jobs {
			var err error
			if jobs[i], err = d.Next(); err != nil {
				refuseBatch(w, err)
				return nil
			}
		}
		if !inRange {
			writeError(w, http.StatusBadRequest, "bad batch: timeout_ms %d is outside [0, %d]", d.TimeoutMS, maxTimeoutMS)
			return nil
		}
		return s.submitHTTP(w, jobs, opts)
	}
	if err := s.fill(r, t, d); err != nil {
		refuseBatch(w, err)
		return nil
	}
	return t
}

// fill decodes and admits the jobs of a gated ticket, then accepts it. Each
// job goes through Compiler.Prepare before it is admitted, which labels its
// loop here while the worker compiles the jobs before it. Any other way out
// — a defect, or a panic — withdraws the ticket, so its stream is not left
// waiting on an admission that nobody will end.
func (s *Server) fill(r *http.Request, t *ticket, d *wire.SubmitDecoder) error {
	accepted := false
	defer func() {
		if !accepted {
			s.withdraw(t)
		}
	}()
	gone := false
	for i := range t.jobs {
		if i > 0 && !gone && r.Context().Err() != nil {
			// Nobody is left to learn the ticket's id: stop its
			// compilations now. Admission runs on, so the ticket is booked
			// as any other whose client left before its answer.
			t.cancel(errCanceled)
			gone = true
		}
		j, err := d.Next()
		if err != nil {
			return err
		}
		s.compiler.Prepare(j)
		j.Trace = t.trace
		t.jobs[i] = j
		t.gate.Admit()
	}
	s.accept(t)
	accepted = true
	return nil
}

// refuseBatch answers a batch whose body or job does not decode.
func refuseBatch(w http.ResponseWriter, err error) {
	if bad := (*wire.MalformedError)(nil); errors.As(err, &bad) {
		writeError(w, http.StatusBadRequest, "bad batch: %v", bad)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// writeStatus answers 200 with a ticket snapshot in its wire form; the
// outcomes of a finished ticket are encoded straight from the engine's.
// retryAfter, when positive, is the poll-again hint of an unfinished one.
func writeStatus(w http.ResponseWriter, st Status, retryAfter time.Duration, loop bool) {
	ws := wire.JobStatus{
		ID:           st.ID,
		State:        st.State.String(),
		NumJobs:      st.NumJobs,
		CreatedMS:    st.Created.UnixMilli(),
		RetryAfterMS: retryAfter.Milliseconds(),
	}
	if !st.Started.IsZero() {
		ws.StartedMS = st.Started.UnixMilli()
	}
	if !st.Finished.IsZero() {
		ws.FinishedMS = st.Finished.UnixMilli()
	}
	if !st.Deadline.IsZero() {
		ws.DeadlineMS = st.Deadline.UnixMilli()
	}
	if st.Err != nil {
		ws.Error = st.Err.Error()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Outcomes are set only once the ticket has finished.
	w.Write(append(wire.AppendJobStatus(nil, &ws, st.Outcomes, loop), '\n'))
}

// handleBatchStream streams a ticket an earlier answer named.
func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Hold the ticket record itself for the whole response: retention
	// pruning of the tickets map cannot invalidate the hello's batch size
	// or lose the done frame of a ticket that finishes mid-stream.
	t, ok := s.lookup(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown ticket %q", id)
		return
	}
	s.streamTicket(w, r, t, true)
}

// streamTicket pushes a ticket's outcomes as NDJSON the moment each job
// finishes: a hello frame (stream schema, ticket, batch size), one outcome
// frame per finished job — replaying completions the watcher missed, so
// connecting late or reconnecting loses nothing — and a done frame with the
// terminal state. Every frame is one line and one Write; the connection is
// flushed after the hello and then whenever the handler has written every
// completion there is and is about to wait for the next, so a result never
// sits in a buffer while the engine works on another. This is the
// server-push path behind Client.Stream, and the replay a cut stream
// resumes over.
//
// Unless an earlier answer named the ticket, the hello is the only place its
// id travels: a request that ends before the hello was written leaves a ticket
// nobody can name, which is cancelled rather than compiled for no one.
func (s *Server) streamTicket(w http.ResponseWriter, r *http.Request, t *ticket, named bool) {
	loop := wantsLoop(r.URL.Query())

	w.Header().Set("Content-Type", wire.NDJSON)
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	// hello and done, two per stream, stay on encoding/json.
	enc := json.NewEncoder(w)

	if r.Context().Err() != nil || enc.Encode(wire.HelloFrame(t.id, len(t.jobs))) != nil {
		if !named {
			t.cancel(errCanceled)
		}
		return
	}
	flush()
	var line []byte
	for ev := range t.watch(r.Context(), flush) {
		line = wire.AppendOutcomeFrame(line[:0], ev.Index, ev.Outcome, loop)
		if _, err := w.Write(line); err != nil {
			return
		}
	}
	// watch also unblocks when the request context dies; only a ticket
	// that actually finished gets a done frame.
	final := t.snapshot()
	if r.Context().Err() != nil {
		return
	}
	if final.State != StateDone && final.State != StateCanceled {
		return
	}
	msg := ""
	if final.Err != nil {
		msg = final.Err.Error()
	}
	done := wire.DoneFrame(final.State.String(), msg)
	if t.trace != nil {
		sum := t.trace.Summary()
		done.Trace = &wire.TraceSummary{
			Spans:  sum.Spans,
			Tracks: sum.Tracks,
			WallMS: float64(sum.Wall.Microseconds()) / 1e3,
		}
	}
	enc.Encode(done)
	flush()
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown ticket %q", r.PathValue("id"))
		return
	}
	var hint time.Duration
	if st.State == StateQueued || st.State == StateRunning {
		// Tell pollers when to come back: an unfinished ticket is running
		// (or about to), so on a short leash. The same hint rides the
		// Retry-After header (whole seconds, rounded up) for proxies and
		// generic HTTP tooling.
		hint = pollHint
		w.Header().Set("Retry-After", strconv.Itoa(int((hint+time.Second-1)/time.Second)))
	}
	writeStatus(w, st, hint, wantsLoop(r.URL.Query()))
}

// pollHint is when an unfinished ticket is worth polling again.
const pollHint = 100 * time.Millisecond

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.Cancel(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "unknown ticket %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleMetrics serves the whole metric registry — the engine's
// histograms and counters plus the service's own — in the Prometheus
// text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.registry.WritePrometheus(w)
}

// handleJobTrace serves a traced ticket's execution spans as Chrome
// trace-event JSON (load the file in chrome://tracing or Perfetto). 404
// for unknown tickets and for tickets submitted without tracing.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.Trace(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace for ticket %q (submit with trace enabled)", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w)
}

// handleStrategies lists the scheduling strategies this server's pipeline
// registers, so clients can discover what a job's options.strategy may
// name before submitting.
func (s *Server) handleStrategies(w http.ResponseWriter, r *http.Request) {
	names := pipeline.StrategyNames()
	resp := wire.StrategiesResponse{Strategies: make([]wire.StrategyInfo, len(names))}
	for i, name := range names {
		resp.Strategies[i] = wire.StrategyInfo{
			Name:        name,
			Description: pipeline.StrategyDescription(name),
			Default:     name == pipeline.DefaultStrategy,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// buildInfo resolves the binary's build identity once: module version, VCS
// revision and dirtiness from the stamped debug.BuildInfo.
var buildInfo = sync.OnceValue(func() wire.HealthResponse {
	h := wire.HealthResponse{Status: "ok"}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return h
	}
	h.Version = bi.Main.Version
	h.GoVersion = bi.GoVersion
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			h.Revision = kv.Value
		case "vcs.modified":
			h.Dirty = kv.Value == "true"
		}
	}
	return h
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	h := buildInfo()
	h.UptimeSec = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, h)
}
