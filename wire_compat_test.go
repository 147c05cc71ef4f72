package clusched

// Wire compatibility in both directions across the loop=0 change. A reader
// that does not ask (a foreign reader, a client built before the parameter
// existed) gets every result with its loop, in the struct form
// encoding/json has always read; a server that does not understand the
// parameter (built before it existed) ignores it and echoes, and this
// repository's clients decode that through the parse path.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

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
	a, b := echoingServer(t, service.Config{}), echoingServer(t, service.Config{Runners: 4})
	cluster := NewCluster([]string{b.URL}, WithNodeInFlight(2), WithHealthInterval(-1))
	t.Cleanup(cluster.Close)
	for name, backend := range map[string]Backend{
		"remote":  fastPoll(NewRemote(a.URL)),
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
	// The poll path, which a cut stream resumes over, parses echoes too.
	c := fastPoll(NewRemote(a.URL))
	id, err := c.SubmitBatch(context.Background(), jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.waitBatch(context.Background(), id, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range st.Outcomes {
		if got := resultFingerprint(o.Result); got != want[i] || o.Job.Graph != jobs[i].Graph {
			t.Fatalf("poll path: job %d diverges", i)
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
