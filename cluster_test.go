package clusched

// Fleet-level failure tests on top of the backend conformance suite: the
// cluster must survive losing a node mid-batch without losing or changing a
// single outcome, and the single-server client must survive losing its
// NDJSON stream mid-batch by reading the ticket's own stream once more —
// each undelivered outcome exactly once.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/service"
	"clusched/internal/wire"
)

// TestClusterNodeKilledMidBatch is the ISSUE's headline acceptance: a
// 3-node fleet loses one node while a batch is streaming — in-flight
// requests cut, the port gone — and the batch still completes with every
// outcome bit-identical to a serial local run.
func TestClusterNodeKilledMidBatch(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	tss, cl := newConformanceFleet(t, driver.Config{}, 3)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var killOnce sync.Once
	seen := make([]bool, len(jobs))
	delivered := 0
	for i, out := range cl.Stream(ctx, jobs) {
		if seen[i] {
			t.Fatalf("job %d yielded twice", i)
		}
		seen[i] = true
		if out.Err != nil {
			t.Fatalf("job %d (%s): %v", i, jobs[i].Graph.Name, out.Err)
		}
		if got := resultFingerprint(out.Result); got != want[i] {
			t.Fatalf("job %d diverges after the node kill:\n  got:  %s\n  want: %s", i, got, want[i])
		}
		if delivered++; delivered == 3 {
			// A third of nothing has finished yet; kill a node hard while
			// the rest of the batch is in flight. CloseClientConnections
			// severs established exchanges (mid-request transport errors),
			// Close takes the listener away (refused reconnects).
			killOnce.Do(func() {
				victim := tss[1]
				go func() {
					victim.CloseClientConnections()
					victim.Close()
				}()
			})
		}
	}
	if delivered != len(jobs) {
		t.Fatalf("stream delivered %d of %d outcomes", delivered, len(jobs))
	}
}

// streams reports whether w's answer is a batch stream, whichever request it
// answers: a POST /batch, or a GET of a ticket's stream.
func streams(w http.ResponseWriter) bool { return w.Header().Get("Content-Type") == wire.NDJSON }

// cutStream wraps a ResponseWriter and, when the answer is a batch stream,
// aborts the connection after a fixed number of newline-terminated frames — a
// deterministic mid-batch transport cut, as seen from the client. cuts counts
// the streams it cut.
type cutStream struct {
	http.ResponseWriter
	frames int
	limit  int
	cuts   *atomic.Int32
}

func (c *cutStream) Write(p []byte) (int, error) {
	if !streams(c) {
		return c.ResponseWriter.Write(p)
	}
	if c.frames >= c.limit {
		c.cuts.Add(1)
		panic(http.ErrAbortHandler)
	}
	for _, b := range p {
		if b == '\n' {
			c.frames++
		}
	}
	return c.ResponseWriter.Write(p)
}

// Flush must pass through: the stream endpoint pushes frame by frame, and
// the cut is only observable client-side if the allowed frames were sent.
func (c *cutStream) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestStreamReconnectDeliversSuffixExactlyOnce cuts the NDJSON stream after
// the hello frame plus one outcome. The client must read the ticket's own
// stream once more — GET /batch/{id}/stream, never the poll endpoint — and
// deliver the undelivered suffix exactly once, bit-identical to the
// reference, the already-streamed prefix never repeated. When the resumed
// stream is cut too, every undelivered job yields that error once, the
// iteration ends, and the ticket is cancelled.
func TestStreamReconnectDeliversSuffixExactlyOnce(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	for _, tc := range []struct {
		name      string
		cutResume bool
	}{{"the resume completes", false}, {"the resume is cut too", true}} {
		t.Run(tc.name, func(t *testing.T) {
			s := service.New(service.Config{})
			h := s.Handler()
			var cuts, resumes, polls, deletes atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				switch {
				case r.Method == http.MethodDelete:
					deletes.Add(1)
				case r.Method == http.MethodGet && strings.HasSuffix(r.URL.Path, "/stream"):
					resumes.Add(1)
				case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/jobs/"):
					polls.Add(1)
				}
				if r.Method == http.MethodPost || tc.cutResume {
					w = &cutStream{ResponseWriter: w, limit: 2, cuts: &cuts} // hello + one outcome
				}
				h.ServeHTTP(w, r)
			}))
			t.Cleanup(func() {
				ts.Close()
				s.Shutdown(context.Background())
			})

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			seen := make([]bool, len(jobs))
			failed := 0
			for i, out := range NewRemote(ts.URL).Stream(ctx, jobs) {
				if seen[i] {
					t.Fatalf("job %d delivered twice across the cut", i)
				}
				seen[i] = true
				switch {
				case out.Err == nil:
					if got := resultFingerprint(out.Result); got != want[i] {
						t.Fatalf("job %d diverges after the reconnect:\n  got:  %s\n  want: %s", i, got, want[i])
					}
				case tc.cutResume && errors.Is(out.Err, wire.ErrStreamCut):
					failed++
				default:
					t.Fatalf("job %d (%s): %v", i, jobs[i].Graph.Name, out.Err)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("job %d never yielded", i)
				}
			}
			wantCuts, wantDeletes := int32(1), int32(0)
			if tc.cutResume {
				wantCuts, wantDeletes = 2, 1
				if failed == 0 {
					t.Fatal("the second cut failed no job")
				}
			}
			if cuts.Load() != wantCuts {
				t.Fatalf("%d streams cut, want %d", cuts.Load(), wantCuts)
			}
			if resumes.Load() == 0 || polls.Load() != 0 {
				t.Fatalf("the client resumed with %d GET /batch/{id}/stream and %d GET /jobs/{id}; want the stream, never the poll", resumes.Load(), polls.Load())
			}
			if deletes.Load() != wantDeletes {
				t.Fatalf("the server saw %d DELETE /jobs/{id}, want %d", deletes.Load(), wantDeletes)
			}
		})
	}
}

// holdAfter is a Store that lets its first pass Loads through and holds every
// later one until released: a node that has answered a little of a run and
// provably not the rest.
type holdAfter struct {
	pass  int32
	loads atomic.Int32
	open  chan struct{}
	once  sync.Once
}

func (g *holdAfter) release() { g.once.Do(func() { close(g.open) }) }

func (g *holdAfter) Load(CompileJob) (*Result, error, bool) {
	if g.loads.Add(1) > g.pass {
		<-g.open
	}
	return nil, nil, false
}

func (g *holdAfter) Save(CompileJob, *Result, error) {}

// TestClusterCutRunIsCancelledOnItsNode: a node whose stream is cut after one
// outcome keeps the ticket — the fleet does not resume it, it compiles the
// rest elsewhere — so the fleet cancels it there: the node must not go on
// compiling a run nobody will read.
func TestClusterCutRunIsCancelledOnItsNode(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	// Node 0 has one worker and answers two jobs of its first run; its stream
	// dies under the second outcome, and the third job is held at the gate.
	gate := &holdAfter{pass: 2, open: make(chan struct{})}
	var deletes, cuts atomic.Int32
	cut := service.New(service.Config{Workers: 1, Store: gate})
	sound := service.New(service.Config{})
	urls := make([]string, 2)
	for i, s := range []*service.Server{cut, sound} {
		h := s.Handler()
		if s == cut {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				inner.ServeHTTP(&cutStream{ResponseWriter: w, limit: 2, cuts: &cuts}, r) // hello + one outcome
				if r.Method == http.MethodDelete {
					deletes.Add(1)
				}
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		urls[i] = ts.URL
	}
	t.Cleanup(gate.release)
	cl := NewCluster(urls, WithNodeInFlight(1), WithHedge(-1), WithHealthInterval(-1))
	t.Cleanup(cl.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs, err := Collect(ctx, cl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if got := resultFingerprint(o.Result); got != want[i] {
			t.Fatalf("job %d diverges after the cut:\n  got:  %s\n  want: %s", i, got, want[i])
		}
	}
	if cuts.Load() == 0 {
		t.Fatal("the node's stream was never cut")
	}
	// The cancellation is off the failover's path: it may land after Collect.
	deadline := time.Now().Add(10 * time.Second)
	for deletes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the cut run was never cancelled on its node: %+v", cut.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	gate.release() // lets the cancelled ticket wind down
	waitCanceled(t, []*service.Server{cut}, "cut run")
	for cut.Stats().InFlightCompiles != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("the node is still compiling: %+v", cut.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Two answered, the held one perhaps finished before it saw the
	// cancellation; the rest of a run of at least a third of the batch, never.
	if st := cut.Stats(); st.JobsCompiled > 3 {
		t.Fatalf("the node compiled %d jobs of a run it was cut from after one", st.JobsCompiled)
	}
}

// lyingStream wraps a ResponseWriter and, when the answer is a batch stream,
// inflates the headline II of the first outcome frame it carries: an answer
// that decodes but contradicts its own schedule, so it fails its proof on
// arrival. lies counts the frames it falsified.
type lyingStream struct {
	http.ResponseWriter
	lied bool
	lies *atomic.Int32
}

func (l *lyingStream) Write(p []byte) (int, error) {
	if !l.lied && streams(l) && bytes.Contains(p, []byte(`"type":"outcome"`)) {
		l.lied = true
		l.lies.Add(1)
		if _, err := l.ResponseWriter.Write(bytes.Replace(p, []byte(`"ii":`), []byte(`"ii":1`), 1)); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return l.ResponseWriter.Write(p)
}

func (l *lyingStream) Flush() {
	if f, ok := l.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClusterUnprovableOutcomeIsCompiledElsewhere: a node whose every run
// carries one outcome that fails its proof never gets that outcome past the
// cluster — the job is undelivered, the node is ejected, and the job comes
// back, proven and bit-identical to a local compilation, from another member.
// On Client.Stream the same frame stays that one job's error.
func TestClusterUnprovableOutcomeIsCompiledElsewhere(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	urls := make([]string, 2)
	var lies atomic.Int32
	for i := range urls {
		s := service.New(service.Config{})
		h := s.Handler()
		if i == 0 {
			honest := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				honest.ServeHTTP(&lyingStream{ResponseWriter: w, lies: &lies}, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		urls[i] = ts.URL
	}
	cl := NewCluster(urls, WithNodeInFlight(1), WithHedge(-1), WithHealthInterval(-1))
	t.Cleanup(cl.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs, err := Collect(ctx, cl, jobs)
	if err != nil {
		t.Fatalf("the fleet let an unprovable outcome become an error: %v", err)
	}
	for i, o := range outs {
		if got := resultFingerprint(o.Result); got != want[i] {
			t.Fatalf("job %d diverges:\n  got:  %s\n  want: %s", i, got, want[i])
		}
	}
	liar := cl.FleetStats(ctx).Nodes[0]
	if lies.Load() == 0 {
		t.Fatal("the lying node never lied")
	}
	if liar.Ejections == 0 || liar.Healthy {
		t.Fatalf("the lying node was not ejected: %+v", liar)
	}

	failed := 0
	for i, out := range NewRemote(urls[0]).Stream(ctx, jobs) {
		if out.Err != nil {
			failed++
		} else if got := resultFingerprint(out.Result); got != want[i] {
			t.Fatalf("remote job %d diverges", i)
		}
	}
	if failed != 1 {
		t.Fatalf("Client.Stream reported %d failed jobs, want the one unprovable outcome", failed)
	}
}

// firstLoadGate is a Store that holds the first Load of one loop — whichever
// node makes it — until released; every later Load passes. Routing depends on
// the nodes' random ports, so the gate sits on every node and closes on the
// one the ring happens to pick.
type firstLoadGate struct {
	loop          string
	taken         atomic.Bool
	reached, open chan struct{}
	once          sync.Once
}

// release opens the gate; a test's cleanup calls it too, so that a failed
// test does not leave a server that cannot drain.
func (g *firstLoadGate) release() { g.once.Do(func() { close(g.open) }) }

func newFirstLoadGate(loop string) *firstLoadGate {
	return &firstLoadGate{loop: loop, reached: make(chan struct{}), open: make(chan struct{})}
}

func (g *firstLoadGate) Load(j CompileJob) (*Result, error, bool) {
	if j.Graph.Name == g.loop && g.taken.CompareAndSwap(false, true) {
		close(g.reached)
		<-g.open
	}
	return nil, nil, false
}

func (g *firstLoadGate) Save(CompileJob, *Result, error) {}

// hellos is the fleet's transport in gatedFleet: it counts the answers that
// turn out to be batch streams once the client has read their first line, the
// hello — from then on the client can name their tickets.
type hellos struct{ read atomic.Int32 }

func (h *hellos) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && resp.Header.Get("Content-Type") == wire.NDJSON {
		resp.Body = &helloBody{ReadCloser: resp.Body, read: &h.read}
	}
	return resp, err
}

type helloBody struct {
	io.ReadCloser
	read *atomic.Int32
	seen bool
}

func (b *helloBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if !b.seen && bytes.IndexByte(p[:n], '\n') >= 0 {
		b.seen = true
		b.read.Add(1)
	}
	return n, err
}

// gatedFleet starts two one-worker nodes behind one firstLoadGate and a
// cluster over them with one exchange per node. reading counts the NDJSON
// streams whose hello the cluster has read.
func gatedFleet(t *testing.T, gate *firstLoadGate, opts ...Option) (servers []*service.Server, cl *Cluster, reading *atomic.Int32) {
	t.Helper()
	servers = make([]*service.Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		s := service.New(service.Config{Workers: 1, Store: gate})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		servers[i], urls[i] = s, ts.URL
	}
	h := new(hellos)
	cl = NewCluster(urls, append([]Option{WithNodeInFlight(1), WithHealthInterval(-1), WithHTTPClient(&http.Client{Transport: h})}, opts...)...)
	t.Cleanup(cl.Close)
	t.Cleanup(gate.release)
	return servers, cl, &h.read
}

// waitCanceled waits for one of the servers to report a cancelled ticket.
func waitCanceled(t *testing.T, servers []*service.Server, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, s := range servers {
			if s.Stats().Canceled > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: no ticket was ever cancelled on a node", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterHedgeCancelsTheLosersTicket: a node that goes silent mid-run has
// the undelivered suffix answered by its peer — every outcome still
// bit-identical to a local compilation — and, once the ledger is full, the
// silent node's ticket is cancelled on the node itself.
func TestClusterHedgeCancelsTheLosersTicket(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	// The batch's first loop (two jobs, one per machine) heads its home's
	// first run: that ticket goes silent before its first outcome.
	gate := newFirstLoadGate(jobs[0].Graph.Name)
	servers, cl, _ := gatedFleet(t, gate, WithHedge(20*time.Millisecond))

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	outs, err := Collect(ctx, cl, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if got := resultFingerprint(o.Result); got != want[i] {
			t.Fatalf("job %d diverges:\n  got:  %s\n  want: %s", i, got, want[i])
		}
	}
	st := cl.FleetStats(ctx)
	// The gated run for certain — and, when its home had a second run queued
	// behind the stuck ticket, that one too, or any run a slow box kept
	// silent for 20 ms.
	if st.HedgesFired == 0 || st.HedgesWon == 0 {
		t.Fatalf("%d hedges fired, %d won; want the silent run hedged and its duplicate answering first", st.HedgesFired, st.HedgesWon)
	}
	gate.release() // lets the cancelled ticket wind down
	waitCanceled(t, servers, "hedge loser")
}

// TestClusterEarlyBreakCancelsRemoteTickets: walking away from a fleet
// stream cancels the tickets still open on the nodes, as it does on a single
// server (TestStreamEarlyBreakCancelsRemoteTicket).
func TestClusterEarlyBreakCancelsRemoteTickets(t *testing.T) {
	jobs := conformanceJobs(t)
	gate := newFirstLoadGate(jobs[0].Graph.Name)
	servers, cl, reading := gatedFleet(t, gate, WithHedge(-1))
	for range cl.Stream(context.Background(), jobs) {
		// The first outcome is the other node's. The batch's first loop heads
		// its home's first run, so that ticket will be held at the gate
		// whatever this consumer does; and bounded-load routing leaves each
		// of two nodes at least a third of the batch, so both first runs are
		// tickets. Break once the cluster has read both hellos: a cancellation
		// that lands between a node writing a hello and the cluster reading it
		// has no ticket to name.
		deadline := time.Now().Add(10 * time.Second)
		select {
		case <-gate.reached:
		case <-time.After(time.Until(deadline)):
			t.Fatal("the gated run never reached its node's store")
		}
		for reading.Load() < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("the cluster read the hellos of %d of the two first runs", reading.Load())
			}
			time.Sleep(time.Millisecond)
		}
		break
	}
	gate.release()
	waitCanceled(t, servers, "early break")
}
