package clusched

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/service"
	"clusched/internal/wire"
)

// startService spins an in-process compilation service for client tests.
func startService(t *testing.T, cfg service.Config) (*Client, *service.Server) {
	t.Helper()
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return NewRemote(ts.URL), s
}

func TestClientCompile(t *testing.T) {
	c, _ := startService(t, service.Config{})
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	loops := BenchmarkLoops("tomcatv")
	m := MustParseMachine("4c2b2l64r")
	opts := Options{Replicate: true}

	// Local reference.
	want, err := Compile(loops[0].Graph, m, Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	job := CompileJob{Graph: loops[0].Graph, Machine: m, Opts: opts}
	res, err := c.Compile(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if res.II != want.II || res.Length != want.Length || res.Comms != want.Comms {
		t.Fatalf("remote result diverges from local: II %d/%d", res.II, want.II)
	}
	if res.Schedule == nil || res.Placement == nil {
		t.Fatal("remote result lacks schedule or placement")
	}
	// The decoded schedule supports downstream consumers.
	if _, err := ExpandPipeline(res.Schedule); err != nil {
		t.Fatalf("remote schedule does not expand: %v", err)
	}
	// Second identical compile hits the service cache (Do exposes the
	// cache-hit flag the Backend-level Compile elides).
	out, err := c.Do(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if out.Err != nil || !out.CacheHit {
		t.Fatalf("second remote compile not served from cache: %+v", out)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Submitted != 2 || st.JobsCompiled != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClientErrors: a request the server refuses is an error on both halves
// — every job of a refused batch carries it, once — and a dead endpoint is
// a transport error, not a hang.
func TestClientErrors(t *testing.T) {
	c, _ := startService(t, service.Config{})
	ctx := context.Background()

	m := MustParseMachine("4c2b2l64r")
	var jobs []CompileJob
	for _, l := range BenchmarkLoops("tomcatv")[:2] {
		jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: NewOptions(WithStrategy("no-such-strategy"))})
	}
	refused := func(err error) bool {
		var se *wire.StatusError
		return errors.As(err, &se) && se.Code == http.StatusBadRequest && strings.Contains(se.Msg, "no-such-strategy")
	}
	if _, err := c.Compile(ctx, jobs[0]); !refused(err) {
		t.Fatalf("unary compile under an unknown strategy: %v", err)
	}
	seen := make([]bool, len(jobs))
	for i, out := range c.Stream(ctx, jobs) {
		if seen[i] || !refused(out.Err) {
			t.Fatalf("job %d (again: %v): %v", i, seen[i], out.Err)
		}
		seen[i] = true
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("yielded %v, want both jobs", seen)
	}

	dead := NewRemote("http://127.0.0.1:1")
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := dead.Health(cctx); err == nil {
		t.Fatal("dead endpoint reported healthy")
	}
	for _, out := range dead.Stream(cctx, jobs[:1]) {
		if out.Err == nil {
			t.Fatal("a dead endpoint streamed an outcome")
		}
	}
}

// TestClientQueueFullTyped: a batch the server's admission control turns
// away reaches every job of the stream as a *QueueFullError carrying the
// server's hint. One runner held at a gated job and a queue of one fill
// deterministically, so the third batch is the one refused.
func TestClientQueueFullTyped(t *testing.T) {
	loops := BenchmarkLoops("fpppp")
	m := MustParseMachine("4c2b2l64r")
	batch := func(k int) []CompileJob {
		return []CompileJob{{Graph: loops[2*k].Graph, Machine: m}, {Graph: loops[2*k+1].Graph, Machine: m}}
	}
	gated := loops[0].Graph.Name
	gate := newGateStore(gated)
	c, s := startService(t, service.Config{Runners: 1, QueueDepth: 1, Workers: 1, Store: gate})
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(func() { gate.release(gated) }) // runs first: lets the held batches finish
	ctx := context.Background()
	admit := func(jobs []CompileJob, until func(wire.ServiceStats) bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range c.Stream(ctx, jobs) {
			}
		}()
		for deadline := time.Now().Add(10 * time.Second); !until(s.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("the batch was never admitted: %+v", s.Stats())
			}
		}
	}
	admit(batch(0), func(st wire.ServiceStats) bool { return st.InFlight == 1 }) // held at the gate
	admit(batch(1), func(st wire.ServiceStats) bool { return st.Queued == 1 })   // fills the queue

	refused := 0
	for i, out := range c.Stream(ctx, batch(2)) {
		var full *QueueFullError
		if !errors.As(out.Err, &full) || full.RetryAfter <= 0 {
			t.Fatalf("job %d: want a *QueueFullError with a retry hint, got %v", i, out.Err)
		}
		refused++
	}
	if refused != 2 {
		t.Fatalf("%d jobs refused, want the batch's 2", refused)
	}
}

// TestStreamEarlyBreakCancelsRemoteTicket: walking away from a remote
// stream must cancel the server-side ticket — the Backend contract says
// early stop abandons the remaining work, and leaving the server to
// compile a batch nobody reads would break that remotely.
func TestStreamEarlyBreakCancelsRemoteTicket(t *testing.T) {
	loops := BenchmarkLoops("mgrid")
	m := MustParseMachine("4c2b2l64r")
	jobs := make([]CompileJob, len(loops))
	for i, l := range loops {
		jobs[i] = CompileJob{Graph: l.Graph, Machine: m}
	}
	// Gate the second job so the batch is provably still running when the
	// consumer breaks.
	gate := newGateStore(jobs[1].Graph.Name)
	c, s := startService(t, service.Config{Workers: 1, Store: gate})

	for range c.Stream(context.Background(), jobs) {
		break
	}
	gate.release(jobs[1].Graph.Name)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st := s.Stats(); st.Canceled >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned ticket never cancelled server-side: %+v", s.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamIdleTimeoutOnWedgedServer: a server that opens the stream and
// then goes silent must not hang Stream forever — the inter-frame
// watchdog (bound to the client timeout) cuts the connection, stamps
// the undelivered jobs and cancels the ticket nobody will read any more.
func TestStreamIdleTimeoutOnWedgedServer(t *testing.T) {
	wedged := make(chan struct{})
	defer close(wedged)
	var deletes atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("DELETE /jobs/t1", func(w http.ResponseWriter, r *http.Request) {
		deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"t1"}` + "\n"))
	})
	mux.HandleFunc("GET /batch/t1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write([]byte(`{"type":"hello","schema":3,"id":"t1","total":1}` + "\n"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		select { // silence: no outcome, no done, no close
		case <-wedged:
		case <-r.Context().Done():
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewRemote(ts.URL, WithTimeout(100*time.Millisecond))
	loops := BenchmarkLoops("tomcatv")[:1]
	jobs := []CompileJob{{Graph: loops[0].Graph, Machine: MustParseMachine("4c2b2l64r")}}
	done := make(chan error, 1)
	go func() {
		var got error
		for _, out := range c.Stream(context.Background(), jobs) {
			got = out.Err
		}
		done <- got
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "idle") {
			t.Fatalf("want an idle-timeout error, got %v", err)
		}
		if got := deletes.Load(); got != 1 {
			t.Fatalf("the server saw %d DELETE /jobs/t1, want the abandoned ticket cancelled once", got)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Stream hung on a wedged server")
	}
}

// TestStreamUnknownTicket404IsNotEndpointFallback: a 404 on the stream
// endpoint — the server's JSON answer for a ticket it no longer knows, or a
// bare mux-level 404 — is an error stamped on the undelivered jobs, never a
// cue to poll the same ticket.
func TestStreamUnknownTicket404IsNotEndpointFallback(t *testing.T) {
	for _, c := range []struct {
		name, body, want string
	}{
		{"json body", `{"error":"unknown ticket \"gone\""}` + "\n", "unknown ticket"},
		{"bare mux", "404 page not found\n", "stream answered 404"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var polled atomic.Bool
			mux := http.NewServeMux()
			mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte(`{"id":"gone"}` + "\n"))
			})
			mux.HandleFunc("GET /batch/gone/stream", func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusNotFound)
				w.Write([]byte(c.body))
			})
			mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
				polled.Store(true)
				w.WriteHeader(http.StatusNotFound)
				w.Write([]byte(`{"error":"unknown ticket"}` + "\n"))
			})
			ts := httptest.NewServer(mux)
			defer ts.Close()

			cl := NewRemote(ts.URL, WithTimeout(time.Second))
			loops := BenchmarkLoops("tomcatv")[:1]
			jobs := []CompileJob{{Graph: loops[0].Graph, Machine: MustParseMachine("4c2b2l64r")}}
			yielded := 0
			for _, out := range cl.Stream(context.Background(), jobs) {
				yielded++
				if out.Err == nil || !strings.Contains(out.Err.Error(), c.want) {
					t.Fatalf("want an error containing %q, got %v", c.want, out.Err)
				}
			}
			if yielded != len(jobs) {
				t.Fatalf("yielded %d outcomes for %d jobs", yielded, len(jobs))
			}
			if polled.Load() {
				t.Fatal("client polled a ticket whose stream the server refused")
			}
		})
	}
}

// TestStreamMissingJobsInheritTheBatchError: a done frame that arrives with
// jobs undelivered — a ticket cancelled while it was queued — gives each of
// them, once, the batch's terminal error; nothing is polled, nothing retried.
func TestStreamMissingJobsInheritTheBatchError(t *testing.T) {
	var polled atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"id":"t1"}` + "\n"))
	})
	mux.HandleFunc("GET /batch/t1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"type":"hello","schema":3,"id":"t1","total":2}` + "\n"))
		w.Write([]byte(`{"type":"done","state":"canceled","error":"service: canceled by request"}` + "\n"))
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { polled.Store(true) })
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewRemote(ts.URL, WithTimeout(time.Second))
	m := MustParseMachine("4c2b2l64r")
	var jobs []CompileJob
	for _, l := range BenchmarkLoops("tomcatv")[:2] {
		jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m})
	}
	seen := make([]bool, len(jobs))
	for i, out := range c.Stream(context.Background(), jobs) {
		if seen[i] {
			t.Fatalf("job %d yielded twice", i)
		}
		seen[i] = true
		var re *wire.RemoteError
		if !errors.As(out.Err, &re) || re.Msg != "service: canceled by request" {
			t.Fatalf("job %d: want the batch's terminal error, got %v", i, out.Err)
		}
		if out.Job.Graph != jobs[i].Graph {
			t.Fatalf("job %d: the outcome is not tagged with its job", i)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("yielded %v, want both jobs", seen)
	}
	if polled.Load() {
		t.Fatal("the client polled a ticket whose stream had ended")
	}
}
