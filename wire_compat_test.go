package clusched

// Wire compatibility in both directions across the loop=0 change and the
// streamed POST /batch. A reader that does not ask (a foreign reader, a
// client built before the parameter existed) gets every result with its
// loop, in the struct form encoding/json has always read, and a ticket for
// its batch; a server that does not understand the parameter (built before it
// existed) ignores it and echoes, a server that does not stream its POST
// answer hands out the ticket, and this repository's clients decode the one
// through the parse path and read the other over a second request.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/cluster"
	"clusched/internal/service"
	"clusched/internal/wire"
)

// echoingServer is a server that predates loop=0: the parameter is dropped
// before the handler sees it.
func echoingServer(t *testing.T, cfg service.Config) *httptest.Server {
	t.Helper()
	s := service.New(cfg)
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		q.Del("loop")
		r.URL.RawQuery = q.Encode()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts
}

// TestClientsDecodeAnEchoingServer: against a server that ignores loop=0
// the remote and cluster backends still pass the conformance jobs, bit for
// bit — the echoed loop is parsed, so the result's Loop is an equal copy of
// the submitted graph rather than the graph itself.
func TestClientsDecodeAnEchoingServer(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	a, b := echoingServer(t, service.Config{}), echoingServer(t, service.Config{})
	cluster := NewCluster([]string{b.URL}, WithNodeInFlight(2), WithHealthInterval(-1))
	t.Cleanup(cluster.Close)
	for name, backend := range map[string]Backend{
		"remote":  NewRemote(a.URL),
		"cluster": cluster,
	} {
		outs, err := Collect(context.Background(), backend, jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, o := range outs {
			if got := resultFingerprint(o.Result); got != want[i] {
				t.Fatalf("%s: job %d diverges through the parse path:\n  got:  %s\n  want: %s", name, i, got, want[i])
			}
			if o.Result.Loop == jobs[i].Graph || o.Result.Loop.Fingerprint() != jobs[i].Graph.Fingerprint() {
				t.Fatalf("%s: job %d: expected a parsed copy of the submitted loop", name, i)
			}
		}
		res, err := backend.Compile(context.Background(), jobs[0])
		if err != nil || resultFingerprint(res) != want[0] {
			t.Fatalf("%s: unary exchange through the parse path: %v", name, err)
		}
	}
}

// TestClientsStreamFromATicketOnlyServer: against a server that predates the
// streamed POST /batch — Accept is dropped before the handler sees it, so
// every batch is answered with its ticket — the remote and cluster backends
// still pass the conformance jobs, bit for bit, over GET /batch/{id}/stream.
func TestClientsStreamFromATicketOnlyServer(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	var gets atomic.Int32
	ticketOnly := func() string {
		s := service.New(service.Config{})
		h := s.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			if strings.HasSuffix(r.URL.Path, "/stream") {
				gets.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		return ts.URL
	}
	cl := NewCluster([]string{ticketOnly(), ticketOnly()}, WithHedge(-1), WithHealthInterval(-1))
	t.Cleanup(cl.Close)
	for name, backend := range map[string]Backend{"remote": NewRemote(ticketOnly()), "cluster": cl} {
		before := gets.Load()
		outs, err := Collect(context.Background(), backend, jobs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, o := range outs {
			if got := resultFingerprint(o.Result); got != want[i] {
				t.Fatalf("%s: job %d diverges through the ticket-only path:\n  got:  %s\n  want: %s", name, i, got, want[i])
			}
		}
		if gets.Load() == before {
			t.Fatalf("%s: no stream was opened by a second request", name)
		}
	}
}

// TestARunIsOneExchange: against a server of this commit a run of several
// jobs is one request — the POST whose answer is the stream — from Client and
// from a fleet node alike, and nothing is left to cancel.
func TestARunIsOneExchange(t *testing.T) {
	jobs := conformanceJobs(t)[:4]
	s := service.New(service.Config{})
	h := s.Handler()
	var (
		mu       sync.Mutex
		requests = map[string]int{} // by method
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requests[r.Method]++
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	took := func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		m := requests
		requests = map[string]int{}
		return m
	}
	node := cluster.NewHTTPNode(ts.URL, nil, time.Minute)
	runs := map[string]func() error{
		"Client": func() error { _, err := Collect(context.Background(), NewRemote(ts.URL), jobs); return err },
		"HTTPNode": func() error {
			return node.Stream(context.Background(), jobs, func(int, CompileOutcome) bool { return true })
		},
	}
	for name, run := range runs {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m := took(); len(m) != 1 || m[http.MethodPost] != 1 {
			t.Fatalf("%s: a %d-job run took %v; want exactly one POST", name, len(jobs), m)
		}
	}
}

// TestOldClientAgainstThisServer replays the exchange of a client built
// before this change — request bodies from json.Marshal of the struct
// form, no loop parameter, every answer read by encoding/json into the
// struct form and decoded without a job in hand — against this server.
func TestOldClientAgainstThisServer(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	s := service.New(service.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	post := func(path string, body, out any) {
		t.Helper()
		blob, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s answered %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	wjs := make([]wire.Job, len(jobs))
	for i, j := range jobs {
		wj, err := wire.EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		wjs[i] = wj
	}

	// Unary.
	var st wire.JobStatus
	post("/compile?wait=1", wjs[0], &st)
	if len(st.Outcomes) != 1 {
		t.Fatalf("unary answer carries %d outcomes", len(st.Outcomes))
	}
	out, err := st.Outcomes[0].Decode()
	if err != nil || resultFingerprint(out.Result) != want[0] {
		t.Fatalf("unary exchange: %v", err)
	}

	// Batch, streamed with a json.Decoder over the body as the old client
	// did, then polled.
	var sub wire.SubmitResponse
	post("/batch", wire.SubmitRequest{Jobs: wjs}, &sub)
	resp, err := http.Get(ts.URL + "/batch/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	seen := 0
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream: %v", err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		if f.Type == wire.FrameDone {
			break
		}
		if f.Type != wire.FrameOutcome {
			continue
		}
		out, err := f.Outcome.Decode()
		if err != nil || resultFingerprint(out.Result) != want[f.Index] {
			t.Fatalf("streamed job %d: %v", f.Index, err)
		}
		if out.Result.Loop.Fingerprint() != jobs[f.Index].Graph.Fingerprint() {
			t.Fatalf("streamed job %d: the echoed loop is not the submitted one", f.Index)
		}
		seen++
	}
	if seen != len(jobs) {
		t.Fatalf("stream carried %d of %d outcomes", seen, len(jobs))
	}
	getResp, err := http.Get(ts.URL + "/jobs/" + sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	var polled wire.JobStatus
	if err := json.NewDecoder(getResp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if len(polled.Outcomes) != len(jobs) {
		t.Fatalf("poll answer carries %d of %d outcomes", len(polled.Outcomes), len(jobs))
	}
	for i, wo := range polled.Outcomes {
		out, err := wo.Decode()
		if err != nil || resultFingerprint(out.Result) != want[i] {
			t.Fatalf("polled job %d: %v", i, err)
		}
	}
}
