package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// answers, a streamed POST /batch's too: queue-full rejections answer 429
// with a Retry-After header and a wire.ErrorResponse carrying the same hint.
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

// handleCompile accepts one wire.Job. With ?wait=1 it blocks until the
// compilation finishes and answers with the full wire.JobStatus; without
// it, it answers 202 with the ticket.
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
	t := s.submitHTTP(w, jobs, SubmitOptions{Trace: query.Get("trace") != ""})
	if t == nil {
		return
	}
	if query.Get("wait") == "" {
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

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitRequest
	body, err := readBody(w, r)
	if err == nil {
		err = wire.DecodeSubmitRequest(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad batch: %v", err)
		return
	}
	jobs, err := wire.DecodeJobs(req.Jobs)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	t := s.submitHTTP(w, jobs, SubmitOptions{
		Timeout: time.Duration(req.TimeoutMS) * time.Millisecond,
		Trace:   req.Trace,
	})
	if t == nil {
		return
	}
	if !strings.Contains(r.Header.Get("Accept"), wire.NDJSON) {
		writeJSON(w, http.StatusAccepted, wire.SubmitResponse{ID: t.id})
		return
	}
	s.streamTicket(w, r, t, false)
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
		// Tell pollers when to come back: the server knows its backlog
		// better than any client-side ladder. The same hint rides the
		// Retry-After header (whole seconds, rounded up) for proxies and
		// generic HTTP tooling.
		hint = s.pollHint(st)
		w.Header().Set("Retry-After", strconv.Itoa(int((hint+time.Second-1)/time.Second)))
	}
	writeStatus(w, st, hint, wantsLoop(r.URL.Query()))
}

// pollHint estimates when an unfinished ticket is worth polling again:
// queued tickets by the backlog-proportional admission estimate, running
// tickets on a short leash.
func (s *Server) pollHint(st Status) time.Duration {
	if st.State == StateQueued {
		return s.retryAfter()
	}
	return 100 * time.Millisecond
}

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
