package clusched

// The Backend conformance suite: one shared harness run against both
// implementations — the in-process Compiler and the remote Client over a
// live service. It pins the contract the interface promises:
//
//   - bit-identical Results for the same job list (II, schedule
//     fingerprint, cause attribution), wherever the compilation ran;
//   - Stream delivers the first outcomes while the batch is verifiably
//     still compiling (on the remote backend that means over the NDJSON
//     push endpoint — a poll-based transport would deadlock this test,
//     not just slow it down);
//   - cancelling mid-stream leaves a clean prefix: every job yields
//     exactly once, finished outcomes are identical to an uncancelled
//     run, everything else carries the cancellation;
//   - once cancel returns, at most W more successes: the worker count
//     locally, none remotely or from a fleet.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/service"
)

// gateStore is a Store whose Load blocks for selected loops until
// released: the deterministic way to hold one job of a batch open while
// the rest complete. It gates the local engine and the remote server
// through the same driver.Config.Store seam.
type gateStore struct {
	hold map[string]chan struct{}
}

func newGateStore(loops ...string) *gateStore {
	g := &gateStore{hold: map[string]chan struct{}{}}
	for _, l := range loops {
		g.hold[l] = make(chan struct{})
	}
	return g
}

func (g *gateStore) release(loop string) { close(g.hold[loop]) }

func (g *gateStore) Load(j CompileJob) (*Result, error, bool) {
	if ch, ok := g.hold[j.Graph.Name]; ok {
		<-ch
	}
	return nil, nil, false
}

func (g *gateStore) Save(CompileJob, *Result, error) {}

// backendCase builds one Backend implementation over a given engine
// config; the store gate and worker bound ride the config into both, and
// the client options (WithHTTPClient) into the remote ones.
type backendCase struct {
	name string
	make func(t *testing.T, cfg driver.Config, opts ...Option) Backend
}

func backendCases() []backendCase {
	return []backendCase{
		{name: "local", make: func(t *testing.T, cfg driver.Config, _ ...Option) Backend {
			return driver.New(cfg)
		}},
		{name: "remote", make: func(t *testing.T, cfg driver.Config, opts ...Option) Backend {
			t.Helper()
			s := service.New(service.Config{Workers: cfg.Workers, CacheSize: cfg.CacheSize, Store: cfg.Store})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Shutdown(context.Background())
			})
			return NewRemote(ts.URL, opts...)
		}},
		{name: "cluster", make: func(t *testing.T, cfg driver.Config, opts ...Option) Backend {
			t.Helper()
			_, cl := newConformanceFleet(t, cfg, 3, opts...)
			return cl
		}},
	}
}

// conformanceNodeInFlight is the cluster case's per-node exchange window.
const conformanceNodeInFlight = 2

// newConformanceFleet starts n in-process service instances sharing the
// engine config (so store gates apply fleet-wide) and returns them with a
// Cluster backend over all of them.
func newConformanceFleet(t *testing.T, cfg driver.Config, n int, opts ...Option) ([]*httptest.Server, *Cluster) {
	t.Helper()
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range n {
		s := service.New(service.Config{Workers: cfg.Workers, CacheSize: cfg.CacheSize, Store: cfg.Store})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		tss[i], urls[i] = ts, ts.URL
	}
	cl := NewCluster(urls, append([]Option{
		WithNodeInFlight(conformanceNodeInFlight),
		WithHealthInterval(50 * time.Millisecond)}, opts...)...)
	t.Cleanup(cl.Close)
	return tss, cl
}

// conformanceJobs is the shared suite×machines job set both backends must
// agree on: real workload loops across clustered configurations, the
// paper pipeline with and without replication plus a rival strategy.
func conformanceJobs(t *testing.T) []CompileJob {
	t.Helper()
	machines := []Machine{
		MustParseMachine("2c1b2l64r"),
		MustParseMachine("4c2b2l64r"),
	}
	optsList := []Options{
		{},
		NewOptions(WithReplication(true)),
		NewOptions(WithStrategy("uas")),
	}
	var jobs []CompileJob
	for _, bench := range []string{"tomcatv", "swim"} {
		loops := BenchmarkLoops(bench)
		if len(loops) > 6 {
			loops = loops[:6]
		}
		for i, l := range loops {
			for _, m := range machines {
				jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: optsList[i%len(optsList)]})
			}
		}
	}
	if len(jobs) < 12 {
		t.Fatalf("conformance job set too small: %d", len(jobs))
	}
	return jobs
}

// resultFingerprint flattens everything observable about a Result —
// achieved II, cause tally, replication accounting, the full issue-time
// vector and the placement — so "identical" means identical, not just
// same-II.
func resultFingerprint(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d MII=%d len=%d sc=%d comms=%d/%d repl=%v rm=%d steps=%d causes=%v",
		r.II, r.MII, r.Length, r.SC, r.CommsBeforeReplication, r.Comms,
		r.Replicated, r.Removed, r.ReplicationSteps, r.IIIncreases)
	if r.Schedule != nil {
		fmt.Fprintf(&b, " t=%v", r.Schedule.Time)
	}
	if r.Placement != nil {
		fmt.Fprintf(&b, " home=%v repl=%v", r.Placement.Home, r.Placement.Replicas)
	}
	return b.String()
}

// referenceOutcomes compiles the job set serially on a plain local engine:
// the ground truth both backends must reproduce.
func referenceOutcomes(t *testing.T, jobs []CompileJob) []string {
	t.Helper()
	outs, err := Collect(context.Background(), NewLocal(WithWorkers(1)), jobs)
	if err != nil {
		t.Fatalf("reference compilation failed: %v", err)
	}
	fps := make([]string, len(outs))
	for i, o := range outs {
		fps[i] = resultFingerprint(o.Result)
	}
	return fps
}

// TestBackendConformanceIdenticalResults: the same job list must produce
// bit-identical Results through every Backend, and through a cache-off
// server, which compiles every job it decodes from a loop its handler
// labeled (driver.Compiler.Prepare).
func TestBackendConformanceIdenticalResults(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	cases := backendCases()
	for _, bc := range cases {
		if bc.name == "remote" {
			cases = append(cases, backendCase{name: "remote-cache-off", make: func(t *testing.T, cfg driver.Config, opts ...Option) Backend {
				cfg.CacheSize = -1
				return bc.make(t, cfg, opts...)
			}})
		}
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make(t, driver.Config{})
			outs, err := Collect(context.Background(), b, jobs)
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("job %d (%s): %v", i, jobs[i].Graph.Name, o.Err)
				}
				if got := resultFingerprint(o.Result); got != want[i] {
					t.Fatalf("job %d (%s on %s) diverges:\n  backend: %s\n  reference: %s",
						i, jobs[i].Graph.Name, jobs[i].Machine.Name, got, want[i])
				}
				// The result is for the caller's own graph, wherever it
				// was compiled: remote backends ask the server not to echo
				// the loop and adopt the one they submitted.
				if o.Result.Loop != jobs[i].Graph || o.Job.Graph != jobs[i].Graph {
					t.Fatalf("job %d (%s): the result's Loop is not the submitted graph", i, jobs[i].Graph.Name)
				}
			}
			// Unary and streaming halves agree, job for job: per-job
			// Compile of the same list, on a backend of its own so that
			// nothing is answered from what Stream left cached, gives what
			// Stream gave.
			unary := bc.make(t, driver.Config{})
			for i, j := range jobs {
				res, err := unary.Compile(context.Background(), j)
				if err != nil {
					t.Fatalf("unary Compile of job %d (%s): %v", i, j.Graph.Name, err)
				}
				if got, streamed := resultFingerprint(res), resultFingerprint(outs[i].Result); got != streamed {
					t.Fatalf("unary Compile of job %d (%s) diverges from the batch result:\n  %s\n  %s", i, j.Graph.Name, got, streamed)
				}
				if res.Loop != j.Graph {
					t.Fatalf("unary Compile of job %d: the result's Loop is not the submitted graph", i)
				}
			}
		})
	}
}

// uniqueGatedJob returns a job whose loop is isomorphic to none in jobs, so
// a gate keyed on its name holds exactly that one job: no cache tier can
// answer it from another.
func uniqueGatedJob(t *testing.T, jobs []CompileJob) CompileJob {
	t.Helper()
	inSet := map[uint64]bool{}
	for _, j := range jobs {
		inSet[j.Graph.CanonicalFingerprint()] = true
	}
	for _, l := range BenchmarkLoops("hydro2d") {
		if !inSet[l.Graph.CanonicalFingerprint()] {
			return CompileJob{Graph: l.Graph, Machine: MustParseMachine("4c2b2l64r")}
		}
	}
	t.Fatal("no unique loop available for the gate")
	return CompileJob{}
}

// TestBackendConformanceStreamingIncremental: with the last job gated
// shut, the stream must still deliver every other outcome — and therefore
// delivers them while the batch is verifiably unfinished. A transport
// that only reports completed batches (polling) cannot pass: the gate
// only opens after the early outcomes arrive.
func TestBackendConformanceStreamingIncremental(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			jobs := conformanceJobs(t)
			gated := uniqueGatedJob(t, jobs)
			jobs = append(jobs, gated)
			last := gated.Graph.Name
			gate := newGateStore(last)
			b := bc.make(t, driver.Config{Workers: 1, Store: gate})

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			delivered := 0
			released := false
			for i, out := range b.Stream(ctx, jobs) {
				if out.Err != nil {
					t.Fatalf("job %d: %v", i, out.Err)
				}
				delivered++
				if delivered == len(jobs)-1 && !released {
					// Every ungated job has streamed in while the batch is
					// provably still running (the gated job cannot have
					// finished). Open the gate to let it complete.
					released = true
					gate.release(last)
				}
			}
			if delivered != len(jobs) {
				t.Fatalf("stream delivered %d of %d outcomes", delivered, len(jobs))
			}
		})
	}
}

// TestBackendConformanceEarlyStop: breaking out of a Stream iteration
// abandons the remaining work cleanly — no panic from a backend calling
// yield after the consumer returned false, no goroutine wedge.
func TestBackendConformanceEarlyStop(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			jobs := conformanceJobs(t)
			b := bc.make(t, driver.Config{Workers: 1})
			n := 0
			for _, out := range b.Stream(context.Background(), jobs) {
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if n++; n == 2 {
					break
				}
			}
			if n != 2 {
				t.Fatalf("consumed %d outcomes, want to stop at 2", n)
			}
			// The backend is still usable afterwards.
			res, err := b.Compile(context.Background(), jobs[0])
			if err != nil || res == nil {
				t.Fatalf("backend unusable after early stop: %v", err)
			}
		})
	}
}

// TestBackendConformanceCancelCleanPrefix: cancelling mid-stream must
// yield every job exactly once, with finished outcomes identical to an
// uncancelled run and everything else carrying an error — never a torn or
// missing outcome. A gated job pinned at index 3 holds the batch open so
// the cancellation deterministically lands mid-stream, and a second one,
// last, stays gated until the stream has ended, so some job is still
// pending when it does: on a fleet the other members' runs go on finishing,
// and outcomes that arrive after the cancel carry it.
func TestBackendConformanceCancelCleanPrefix(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			base := conformanceJobs(t)
			gated := uniqueGatedJob(t, base)
			held := uniqueGatedJob(t, append(slices.Clip(base), gated))
			// Three fast jobs, then the gate, then the rest, then the held
			// job: with one worker, exactly three outcomes finish before
			// the stream stalls at the gate.
			jobs := append([]CompileJob{}, base[:3]...)
			jobs = append(jobs, gated)
			jobs = append(jobs, base[3:]...)
			jobs = append(jobs, held)
			want := referenceOutcomes(t, jobs[:3])
			gate := newGateStore(gated.Graph.Name, held.Graph.Name)
			b := bc.make(t, driver.Config{Workers: 1, Store: gate})
			defer gate.release(held.Graph.Name) // runs before the backend's cleanup

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := make([]bool, len(jobs))
			finished, failed := 0, 0
			for i, out := range b.Stream(ctx, jobs) {
				if seen[i] {
					t.Fatalf("job %d yielded twice", i)
				}
				seen[i] = true
				if out.Err != nil {
					failed++
					continue
				}
				finished++
				if i < 3 {
					if got := resultFingerprint(out.Result); got != want[i] {
						t.Fatalf("finished outcome %d diverges after cancel:\n  %s\n  %s", i, got, want[i])
					}
				}
				if finished == 3 {
					// The worker is stalled at the gate: cancel while the
					// batch is provably mid-flight, then open the gate so
					// everything winds down.
					cancel()
					gate.release(gated.Graph.Name)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("job %d never yielded", i)
				}
			}
			if finished < 3 {
				t.Fatalf("only %d outcomes finished before the cancel", finished)
			}
			if failed == 0 {
				t.Fatal("cancellation mid-stream produced no failed outcomes")
			}
		})
	}
}

// heldFrames is an http.RoundTripper that can hold compile answers in the
// connection: each streamed or unary answer is pumped into memory as it
// arrives and handed to its reader a line at a time — until the transport
// is armed. From then on nothing reaches a reader until it is released,
// while the pumps read on. Outcomes the server finished before a cancel
// then reach the reader after it: the deterministic form of frames still
// in flight on the wire.
type heldFrames struct {
	tr              *http.Transport
	mu              sync.Mutex
	changed         *sync.Cond
	armed, released bool
	bodies          []*heldBody
}

// heldBody is one answer's body behind a heldFrames.
type heldBody struct {
	h     *heldFrames
	under io.ReadCloser
	unary bool   // a POST /compile answer: one outcome, counted once whole
	buf   []byte // read from the connection, not yet by the reader
	err   error  // the connection's last word
}

func newHeldFrames(t *testing.T) *heldFrames {
	h := &heldFrames{tr: http.DefaultTransport.(*http.Transport).Clone()}
	h.changed = sync.NewCond(&h.mu)
	t.Cleanup(h.tr.CloseIdleConnections)
	return h
}

func (h *heldFrames) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := h.tr.RoundTrip(req)
	path := req.URL.Path
	if err != nil || req.Method == http.MethodDelete || path != "/compile" && !strings.HasPrefix(path, "/batch") {
		return resp, err
	}
	b := &heldBody{h: h, under: resp.Body, unary: path == "/compile"}
	h.mu.Lock()
	h.bodies = append(h.bodies, b)
	h.mu.Unlock()
	go b.pump()
	resp.Body = b
	return resp, nil
}

func (b *heldBody) pump() {
	chunk := make([]byte, 4096)
	for {
		n, err := b.under.Read(chunk)
		b.h.mu.Lock()
		b.buf, b.err = append(b.buf, chunk[:n]...), err
		b.h.changed.Broadcast()
		b.h.mu.Unlock()
		if err != nil {
			return
		}
	}
}

func (b *heldBody) Read(p []byte) (int, error) {
	h := b.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(b.buf) == 0 && b.err == nil || h.armed && !h.released {
		h.changed.Wait()
	}
	if len(b.buf) == 0 {
		return 0, b.err
	}
	line := b.buf
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line = line[:i+1]
	}
	n := copy(p, line)
	b.buf = b.buf[n:]
	return n, nil
}

func (b *heldBody) Close() error { return b.under.Close() }

// arm stops handing anything to the readers; release hands it all on.
func (h *heldFrames) arm() { h.set(&h.armed) }

func (h *heldFrames) release() { h.set(&h.released) }

func (h *heldFrames) set(flag *bool) {
	h.mu.Lock()
	*flag = true
	h.changed.Broadcast()
	h.mu.Unlock()
}

// await waits until the pumps hold k finished outcomes no reader has been
// handed, and reports whether they did within a minute.
func (h *heldFrames) await(k int) bool {
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		h.mu.Lock()
		held := 0
		for _, b := range h.bodies {
			if b.unary {
				if b.err == io.EOF && len(b.buf) > 0 {
					held++
				}
				continue
			}
			held += bytes.Count(b.buf[:bytes.LastIndexByte(b.buf, '\n')+1], []byte(`"type":"outcome"`))
		}
		h.mu.Unlock()
		if held >= k {
			return true
		}
	}
	return false
}

// TestBackendConformanceNoSuccessAfterCancel: once cancel returns, a
// Stream yields at most W more successes (Backend.Stream): the worker
// count locally, none remotely or from a fleet. The remote transports hold
// two finished outcomes in the connection across the cancel (heldFrames),
// so a backend that yields what it reads after a cancel fails every time.
func TestBackendConformanceNoSuccessAfterCancel(t *testing.T) {
	const workers, held = 1, 2
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			jobs := conformanceJobs(t)
			h := newHeldFrames(t)
			b := bc.make(t, driver.Config{Workers: workers}, WithHTTPClient(&http.Client{Transport: h}))
			defer h.release() // before the servers' cleanup: nothing stays held
			w := 0
			if bc.name == "local" {
				w = workers
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			yielded, after := 0, 0
			for _, out := range b.Stream(ctx, jobs) {
				yielded++
				if ctx.Err() != nil {
					if out.Err == nil {
						after++
					}
					continue
				}
				if bc.name != "local" {
					h.arm()
					if !h.await(held) {
						t.Fatalf("the connections never held %d finished outcomes", held)
					}
				}
				cancel()
				h.release()
			}
			if yielded != len(jobs) {
				t.Fatalf("%d of %d jobs yielded", yielded, len(jobs))
			}
			if after > w {
				t.Fatalf("%d successes after cancel returned, want at most %d", after, w)
			}
		})
	}
}
