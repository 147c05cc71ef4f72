package clusched

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
	return fastPoll(NewRemote(ts.URL)), s
}

// fastPoll shortens c's poll ladder: a test does not wait out production
// pacing.
func fastPoll(c *Client) *Client {
	c.pollInterval = 5 * time.Millisecond
	return c
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

func TestClientBatch(t *testing.T) {
	c, _ := startService(t, service.Config{})
	ctx := context.Background()

	loops := BenchmarkLoops("hydro2d")[:10]
	m := MustParseMachine("2c1b2l64r")
	jobs := make([]CompileJob, len(loops))
	for i, l := range loops {
		jobs[i] = CompileJob{Graph: l.Graph, Machine: m, Opts: Options{Replicate: true}}
	}
	id, err := c.SubmitBatch(ctx, jobs, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitBatch(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Err != nil {
		t.Fatalf("batch ended %s (%v)", st.State, st.Err)
	}
	if len(st.Outcomes) != len(jobs) {
		t.Fatalf("%d outcomes for %d jobs", len(st.Outcomes), len(jobs))
	}
	for i, o := range st.Outcomes {
		if o.Err != nil || o.Result == nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Result.Loop.Fingerprint() != jobs[i].Graph.Fingerprint() {
			t.Fatalf("job %d: outcome misaligned", i)
		}
	}
}

func TestClientErrors(t *testing.T) {
	c, _ := startService(t, service.Config{})
	ctx := context.Background()

	if _, err := c.Status(ctx, "job-404"); err == nil {
		t.Fatal("unknown ticket did not error")
	}
	if err := c.Cancel(ctx, "job-404"); err == nil {
		t.Fatal("cancel of unknown ticket did not error")
	}
	// A dead endpoint surfaces as a transport error, not a hang.
	dead := NewRemote("http://127.0.0.1:1")
	cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := dead.Health(cctx); err == nil {
		t.Fatal("dead endpoint reported healthy")
	}
}

func TestClientQueueFullTyped(t *testing.T) {
	// Gate the runner with an empty workers pool trick is internal; here
	// just overfill a depth-1 queue with slow-ish batches and accept that
	// at least the typed error path is exercised when it happens.
	c, s := startService(t, service.Config{Runners: 1, QueueDepth: 1, Workers: 1})
	ctx := context.Background()
	loops := BenchmarkLoops("fpppp")
	m := MustParseMachine("4c2b2l64r")
	var jobs []CompileJob
	for _, l := range loops {
		jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: Options{Replicate: true}})
	}
	var sawFull bool
	for i := 0; i < 50 && !sawFull; i++ {
		_, err := c.SubmitBatch(ctx, jobs, 0)
		var full *QueueFullError
		if errors.As(err, &full) {
			if full.RetryAfter <= 0 {
				t.Fatal("queue-full error without retry hint")
			}
			sawFull = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sawFull {
		t.Skip("queue never filled on this machine; admission control is covered by service tests")
	}
	_ = s
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

// TestWaitBatchDeadlineCap: once the server reports a ticket deadline,
// WaitBatch must not poll a doomed ticket forever — past deadline + grace
// it makes one final probe and gives up with an error naming the state.
func TestWaitBatchDeadlineCap(t *testing.T) {
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		polls.Add(1)
		// Running, with a deadline that already expired past the grace
		// window: the cap timer fires before the first sleep finishes.
		fmt.Fprintf(w, `{"id":"doomed","state":"running","num_jobs":1,"deadline_ms":%d}`+"\n",
			time.Now().Add(-10*time.Second).UnixMilli())
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewRemote(ts.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	_, err := c.WaitBatch(ctx, "doomed")
	if err == nil || !strings.Contains(err.Error(), "past its deadline") {
		t.Fatalf("want the past-deadline error, got %v", err)
	}
	if got := polls.Load(); got > 3 {
		t.Fatalf("WaitBatch kept polling a doomed ticket: %d probes", got)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("WaitBatch took %v to give up on an expired ticket", elapsed)
	}
}

// TestWaitBatchHonorsRetryAfterHint: the server's retry_after_ms wins over
// the client's own (here deliberately huge) poll interval, so a hinted
// ticket resolves promptly even with a misconfigured client schedule.
func TestWaitBatchHonorsRetryAfterHint(t *testing.T) {
	var polls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if polls.Add(1) == 1 {
			fmt.Fprintln(w, `{"id":"tk","state":"running","num_jobs":0,"retry_after_ms":60}`)
			return
		}
		fmt.Fprintln(w, `{"id":"tk","state":"done","num_jobs":0}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := NewRemote(ts.URL)
	c.pollInterval = time.Hour // the hint must override this
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	st, err := c.WaitBatch(ctx, "tk")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != wire.StateDone {
		t.Fatalf("want done, got %q", st.State)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("hinted poll took %v; the Retry-After hint did not override the poll interval", elapsed)
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
