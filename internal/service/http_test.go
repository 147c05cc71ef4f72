package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// postJSON posts a JSON body and decodes the JSON answer into out.
func postJSON(t *testing.T, url string, body, out any) int {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding answer: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding answer: %v", url, err)
		}
	}
	return resp.StatusCode
}

func encodeBatch(t *testing.T, bench string, n int) []wire.Job {
	t.Helper()
	jobs := testJobs(t, bench, n)
	wjs := make([]wire.Job, len(jobs))
	for i, j := range jobs {
		wj, err := wire.EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		wjs[i] = wj
	}
	return wjs
}

// pollDone polls GET /jobs/{id} until the ticket reaches a terminal state.
func pollDone(t *testing.T, base, id string) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		var st wire.JobStatus
		if code := getJSON(t, base+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s: %d", id, code)
		}
		if st.State == wire.StateDone || st.State == wire.StateCanceled {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("ticket %s never finished", id)
	return wire.JobStatus{}
}

// TestHTTPEndToEndRestart is the service acceptance test: a batch goes in
// over HTTP, the server is shut down and replaced by a fresh process-
// equivalent (new Server, same cache directory), and the identical batch
// is re-served entirely from the persistent cache with CacheHit set.
func TestHTTPEndToEndRestart(t *testing.T) {
	dir := t.TempDir()
	wjs := encodeBatch(t, "su2cor", 8)

	// ---- First server lifetime.
	cache1, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: cache1})
	ts1 := httptest.NewServer(s1.Handler())

	var sub wire.SubmitResponse
	if code := postJSON(t, ts1.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	st := pollDone(t, ts1.URL, sub.ID)
	if st.State != wire.StateDone || st.Error != "" {
		t.Fatalf("batch ended %s (%s)", st.State, st.Error)
	}
	if len(st.Outcomes) != len(wjs) {
		t.Fatalf("%d outcomes for %d jobs", len(st.Outcomes), len(wjs))
	}
	firstII := make([]int, len(st.Outcomes))
	for i, o := range st.Outcomes {
		if o.Error != "" || o.Result == nil {
			t.Fatalf("job %d: %s", i, o.Error)
		}
		firstII[i] = o.Result.II
	}
	// Shut down cleanly: drain the server, flush the cache.
	ts1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := cache1.Close(); err != nil {
		t.Fatal(err)
	}

	// ---- Restarted server, same cache directory.
	cache2, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache2.Close()
	s2 := New(Config{Store: cache2})
	defer s2.Shutdown(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	if code := postJSON(t, ts2.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub); code != http.StatusAccepted {
		t.Fatalf("restart POST /batch: %d", code)
	}
	st = pollDone(t, ts2.URL, sub.ID)
	if st.State != wire.StateDone || st.Error != "" {
		t.Fatalf("restarted batch ended %s (%s)", st.State, st.Error)
	}
	for i, o := range st.Outcomes {
		if !o.CacheHit {
			t.Fatalf("job %d recompiled after restart (CacheHit=false)", i)
		}
		if o.Result == nil || o.Result.II != firstII[i] {
			t.Fatalf("job %d: restarted result diverges", i)
		}
	}
	var stats wire.ServiceStats
	if code := getJSON(t, ts2.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	if stats.Cache.StoreHits == 0 || stats.Cache.Misses != 0 {
		t.Fatalf("restart compiled instead of hitting the disk cache: %+v", stats.Cache)
	}
	if stats.Cache.HitRate != 1 {
		t.Fatalf("hit rate %v after warm restart", stats.Cache.HitRate)
	}
}

func TestHTTPCompileWait(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wj := encodeBatch(t, "hydro2d", 1)[0]
	var st wire.JobStatus
	if code := postJSON(t, ts.URL+"/compile?wait=1", wj, &st); code != http.StatusOK {
		t.Fatalf("POST /compile?wait=1: %d", code)
	}
	if st.State != wire.StateDone || len(st.Outcomes) != 1 || st.Outcomes[0].Result == nil {
		t.Fatalf("unexpected status: %+v", st)
	}
	// The result decodes into a verified schedule.
	out, err := st.Outcomes[0].Decode()
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Schedule == nil || out.Result.II < out.Result.MII {
		t.Fatalf("implausible remote result: %+v", out.Result)
	}

	// Async variant answers 202 with a ticket.
	var sub wire.SubmitResponse
	if code := postJSON(t, ts.URL+"/compile", wj, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /compile: %d", code)
	}
	if st := pollDone(t, ts.URL, sub.ID); st.State != wire.StateDone {
		t.Fatalf("async compile ended %s", st.State)
	}
}

// TestBatchTimeoutOutOfRangeIs400: a timeout_ms below zero would run the
// ticket with no deadline even on a server with a default one, and one
// past the largest time.Duration in milliseconds would wrap; both are
// refused. The bounds themselves are accepted and carry a deadline.
func TestBatchTimeoutOutOfRangeIs400(t *testing.T) {
	s := New(Config{DefaultTimeout: time.Minute})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "mgrid", 1)
	for _, ms := range []int64{-1, math.MinInt64, maxTimeoutMS + 1, math.MaxInt64} {
		var er wire.ErrorResponse
		if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs, TimeoutMS: ms}, &er); code != http.StatusBadRequest {
			t.Errorf("timeout_ms %d: %d, want 400", ms, code)
		} else if !strings.Contains(er.Error, "timeout_ms") {
			t.Errorf("timeout_ms %d refused with %q", ms, er.Error)
		}
	}
	for _, ms := range []int64{0, 1, maxTimeoutMS} {
		var sub wire.SubmitResponse
		if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs, TimeoutMS: ms}, &sub); code != http.StatusAccepted {
			t.Fatalf("timeout_ms %d: %d, want 202", ms, code)
		}
		if st := pollDone(t, ts.URL, sub.ID); st.DeadlineMS <= 0 {
			t.Errorf("timeout_ms %d: the ticket has no deadline (deadline_ms %d)", ms, st.DeadlineMS)
		}
	}
}

// TestCompileTraceParameter: POST /compile?trace=v traces the ticket only
// when v parses as true, and a v that does not parse is a 400.
func TestCompileTraceParameter(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wj := encodeBatch(t, "tomcatv", 1)[0]
	for _, c := range []struct {
		trace  string // the query's trace value; "" sends none
		status int    // the GET /jobs/{id}/trace answer
	}{
		{"", http.StatusNotFound},
		{"0", http.StatusNotFound},
		{"false", http.StatusNotFound},
		{"1", http.StatusOK},
		{"true", http.StatusOK},
	} {
		url := ts.URL + "/compile?wait=1"
		if c.trace != "" {
			url += "&trace=" + c.trace
		}
		var st wire.JobStatus
		if code := postJSON(t, url, wj, &st); code != http.StatusOK {
			t.Fatalf("POST %s: %d", url, code)
		}
		if code := getJSON(t, ts.URL+"/jobs/"+st.ID+"/trace", nil); code != c.status {
			t.Errorf("trace=%q: GET /jobs/{id}/trace answered %d, want %d", c.trace, code, c.status)
		}
	}
	for _, v := range []string{"yes", "2", "on"} {
		var er wire.ErrorResponse
		if code := postJSON(t, ts.URL+"/compile?wait=1&trace="+v, wj, &er); code != http.StatusBadRequest {
			t.Errorf("trace=%s: %d, want 400", v, code)
		} else if !strings.Contains(er.Error, "trace") {
			t.Errorf("trace=%s refused with %q", v, er.Error)
		}
	}
}

// TestCompileWaitParameter: POST /compile?wait=v blocks for the finished
// status only when v parses as true; a false v answers 202 with the ticket
// like no v at all, and a v that does not parse is a 400.
func TestCompileWaitParameter(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wj := encodeBatch(t, "tomcatv", 1)[0]
	for _, c := range []struct {
		wait string // the query's wait value; "" sends none
		code int
	}{
		{"", http.StatusAccepted},
		{"0", http.StatusAccepted},
		{"false", http.StatusAccepted},
		{"1", http.StatusOK},
		{"true", http.StatusOK},
	} {
		url := ts.URL + "/compile"
		if c.wait != "" {
			url += "?wait=" + c.wait
		}
		var st wire.JobStatus
		code := postJSON(t, url, wj, &st)
		if code != c.code {
			t.Fatalf("wait=%q: %d, want %d", c.wait, code, c.code)
		}
		if code == http.StatusOK && st.State != wire.StateDone {
			t.Errorf("wait=%q answered a ticket %s", c.wait, st.State)
		}
		if code == http.StatusAccepted && (st.ID == "" || st.State != "") {
			t.Errorf("wait=%q answered %+v, want the ticket alone", c.wait, st)
		}
		pollDone(t, ts.URL, st.ID)
	}
	for _, v := range []string{"yes", "2", "on"} {
		var er wire.ErrorResponse
		if code := postJSON(t, ts.URL+"/compile?wait="+v, wj, &er); code != http.StatusBadRequest {
			t.Errorf("wait=%s: %d, want 400", v, code)
		} else if !strings.Contains(er.Error, "wait") {
			t.Errorf("wait=%s refused with %q", v, er.Error)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Malformed body, and the same asking for the batch's stream: a
	// refusal is a JSON answer either way.
	for _, accept := range []string{"", wire.NDJSON} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", bytes.NewReader([]byte("{")))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("malformed batch: %d, %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
	}
	// Bad loop text.
	code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: []wire.Job{{
		Loop:    "loop x\nnode a bogus\nend\n",
		Machine: wire.Machine{Config: "4c2b2l64r"},
	}}}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad loop accepted: %d", code)
	}
	// Unknown ticket.
	if code := getJSON(t, ts.URL+"/jobs/job-404", nil); code != http.StatusNotFound {
		t.Fatalf("unknown ticket: %d", code)
	}
	// Healthz flips to 503 during drain.
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	s.Shutdown(context.Background())
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", code)
	}
	resp, err := postStream(t, context.Background(), ts.URL+"/batch", wire.SubmitRequest{Jobs: encodeBatch(t, "mgrid", 1)})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("streamed batch while draining: %d, %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}

// TestHTTPQueueFull: with QueueDepth tickets unfinished — one, held at the
// gate — a batch is refused 429 with the retry hint in the header and the
// body.
func TestHTTPQueueFull(t *testing.T) {
	gate := make(chan struct{})
	s := New(Config{QueueDepth: 1, Store: &gateStore{gate: gate}})
	defer s.Shutdown(context.Background())
	defer close(gate)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "mgrid", 1)
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, nil); code != http.StatusAccepted {
		t.Fatalf("first batch: %d", code)
	}
	// Whether or not the batch asked to be answered with its stream.
	for _, accept := range []string{"", wire.NDJSON} {
		var er wire.ErrorResponse
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/batch", bytes.NewReader(mustMarshal(t, wire.SubmitRequest{Jobs: wjs})))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Content-Type") != "application/json" {
			t.Fatalf("full queue answered %d, %q", resp.StatusCode, resp.Header.Get("Content-Type"))
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		if er.RetryAfterMS <= 0 {
			t.Fatalf("429 body: %+v", er)
		}
	}
}

// TestHTTPStrategies covers the strategy surface of the service: GET
// /strategies lists every registered strategy, a uas job round-trips
// (POST → poll → decoded verified schedule), it lands in the persistent
// cache under a key distinct from the same loop's paper entry, and /stats
// reports per-strategy counts.
func TestHTTPStrategies(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	s := New(Config{Store: cache})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// GET /strategies lists the registry with the default marked.
	var sr wire.StrategiesResponse
	if code := getJSON(t, ts.URL+"/strategies", &sr); code != http.StatusOK {
		t.Fatalf("GET /strategies: %d", code)
	}
	names := map[string]bool{}
	defaultSeen := ""
	for _, si := range sr.Strategies {
		names[si.Name] = true
		if si.Default {
			defaultSeen = si.Name
		}
	}
	for _, want := range pipeline.StrategyNames() {
		if !names[want] {
			t.Fatalf("/strategies misses %q: %+v", want, sr)
		}
	}
	if defaultSeen != pipeline.DefaultStrategy {
		t.Fatalf("/strategies marks %q as default", defaultSeen)
	}

	// The same loop under paper and uas: both must round-trip to verified
	// schedules and occupy distinct persistent-cache entries.
	job := testJobs(t, "tomcatv", 1)[0]
	for _, strat := range []string{"paper", "uas"} {
		j := job
		j.Opts = pipeline.Options{Strategy: strat}
		wj, err := wire.EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		var sub wire.SubmitResponse
		if code := postJSON(t, ts.URL+"/compile", wj, &sub); code != http.StatusAccepted {
			t.Fatalf("POST /compile (%s): %d", strat, code)
		}
		st := pollDone(t, ts.URL, sub.ID)
		if st.State != wire.StateDone || len(st.Outcomes) != 1 {
			t.Fatalf("%s ticket ended %s with %d outcomes (%s)", strat, st.State, len(st.Outcomes), st.Error)
		}
		out, err := st.Outcomes[0].Decode()
		if err != nil {
			t.Fatalf("%s outcome: %v", strat, err)
		}
		if out.Err != nil || out.Result == nil || out.Result.Schedule == nil {
			t.Fatalf("%s outcome lacks a schedule: %+v", strat, out)
		}
		if got := out.Result.Schedule.II; got != out.Result.II {
			t.Fatalf("%s schedule II %d != result II %d", strat, got, out.Result.II)
		}
	}
	paperKey := driver.JobKey(driver.Job{Graph: job.Graph, Machine: job.Machine, Opts: pipeline.Options{Strategy: "paper"}})
	uasKey := driver.JobKey(driver.Job{Graph: job.Graph, Machine: job.Machine, Opts: pipeline.Options{Strategy: "uas"}})
	if paperKey == uasKey {
		t.Fatalf("paper and uas share the cache key %s", paperKey)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cache.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond) // write-behind queue drains
	}
	if n := cache.Len(); n < 2 {
		t.Fatalf("disk cache holds %d entries, want 2 (distinct per-strategy keys)", n)
	}

	// An unknown strategy is rejected at admission with the typed message.
	alien := testJobs(t, "tomcatv", 1)[0]
	alien.Opts = pipeline.Options{}
	wj, err := wire.EncodeJob(alien)
	if err != nil {
		t.Fatal(err)
	}
	wj.Options.Strategy = "quantum"
	var er wire.ErrorResponse
	if code := postJSON(t, ts.URL+"/compile", wj, &er); code != http.StatusBadRequest {
		t.Fatalf("unknown strategy answered %d", code)
	}
	if er.Error == "" || !strings.Contains(er.Error, "quantum") {
		t.Fatalf("unknown-strategy error lacks the name: %+v", er)
	}

	// /stats carries per-strategy counters for both strategies served.
	var stats wire.ServiceStats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	for _, strat := range []string{"paper", "uas"} {
		ss, ok := stats.Strategies[strat]
		if !ok {
			t.Fatalf("/stats lacks strategy %q: %+v", strat, stats.Strategies)
		}
		if ss.JobsSubmitted == 0 {
			t.Fatalf("/stats reports zero submitted %q jobs", strat)
		}
		if ss.CacheMisses == 0 {
			t.Fatalf("/stats reports zero %q compilations", strat)
		}
	}
	if _, ok := stats.Strategies["quantum"]; ok {
		t.Fatal("/stats counts the rejected unknown strategy")
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestHTTPCancel exercises DELETE /jobs/{id} on a ticket held at the gate.
func TestHTTPCancel(t *testing.T) {
	gate := make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	s := New(Config{QueueDepth: 4, Workers: 1, Store: &gateStore{gate: gate}})
	defer s.Shutdown(context.Background())
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "mgrid", 1)
	var first wire.SubmitResponse
	postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &first)
	var sub wire.SubmitResponse
	postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub)

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%s", ts.URL, sub.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel answered %d", resp.StatusCode)
	}
	release()
	if st := pollDone(t, ts.URL, sub.ID); st.State != wire.StateCanceled {
		t.Fatalf("cancelled ticket ended %s", st.State)
	}
}

// TestUnaryAnsweredBesideAHeldBatch: a ticket runs when it is admitted, so
// on a server with no concurrency setting a unary POST /compile?wait=1 is
// answered while a batch sits held at a gated Store job: the compile budget
// is the only bound on work, and the held job takes none of it.
func TestUnaryAnsweredBesideAHeldBatch(t *testing.T) {
	batch := testJobs(t, "tomcatv", 2)
	held := batch[1].Graph.Name
	gate := newLoopGateStore(held)
	release := sync.OnceFunc(func() { gate.release(held) })
	s := New(Config{Store: gate})
	defer s.Shutdown(context.Background())
	defer release()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(batch, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-gate.first
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := mustMarshal(t, encodeBatch(t, "swim", 1)[0])
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile?wait=1&loop=0", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("unary request beside a held batch: %v", err)
	}
	defer resp.Body.Close()
	var st wire.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || st.State != wire.StateDone || len(st.Outcomes) != 1 || st.Outcomes[0].Result == nil {
		t.Fatalf("unary request: %d %+v, want its job answered", resp.StatusCode, st)
	}
	if bst, _ := s.Job(id); bst.State != StateRunning {
		t.Fatalf("held batch is %v, want still running", bst.State)
	}
	release()
	if st := waitDone(t, s, id); st.State != StateDone || st.Err != nil {
		t.Fatalf("held batch ended %v (%v)", st.State, st.Err)
	}
}

// until polls cond — a state of the server no event announces — to a
// generous deadline.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAbandonedWaitCancelsItsTicket: the ticket of a POST /compile?wait=1
// is known to nobody but the waiting request — its ID travels in the answer
// — so when that client goes away the ticket must stop, not compile for no
// one. An identical job from another client, riding the abandoned job's
// flight, is still answered: its follower retries and compiles for itself.
func TestAbandonedWaitCancelsItsTicket(t *testing.T) {
	job := testJobs(t, "tomcatv", 1)[0]
	body := mustMarshal(t, encodeBatch(t, "tomcatv", 1)[0])
	gate := newLoopGateStore(job.Graph.Name)
	s := New(Config{Store: gate})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	post := func(ctx context.Context) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/compile?wait=1", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}

	// The first client hangs up while its job's leader is held at the gate.
	ctx, hangUp := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		resp, err := post(ctx)
		if err == nil {
			resp.Body.Close()
		}
		gone <- err
	}()
	<-gate.first
	hangUp()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request: %v, want its own cancellation", err)
	}
	// The handler counts its 408 on the way out, after it has dealt with
	// the ticket.
	until(t, "the abandoned request's handler to return", func() bool {
		return s.metrics.httpRequests.With("408").Value() == 1
	})

	// The second client's identical job starts while the flight is held.
	answer := make(chan wire.JobStatus, 1)
	go func() {
		var st wire.JobStatus
		resp, err := post(context.Background())
		if err != nil {
			t.Error(err)
		} else {
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
			}
		}
		answer <- st
	}()
	until(t, "both tickets to be running", func() bool { return s.Stats().InFlight == 2 })
	gate.release(job.Graph.Name)

	st := <-answer
	if st.State != wire.StateDone || len(st.Outcomes) != 1 || st.Outcomes[0].Result == nil {
		t.Fatalf("second client: %+v, want its job answered", st)
	}
	if st.Outcomes[0].CacheHit {
		t.Error("second client was answered from the abandoned ticket's compilation: that ticket kept running")
	}
	until(t, "both tickets to retire", func() bool { return s.Stats().InFlight == 0 })
	if stats := s.Stats(); stats.Canceled != 1 || stats.Completed != 1 || stats.InFlightCompiles != 0 {
		t.Fatalf("canceled=%d completed=%d inflight_compiles=%d, want 1, 1 and 0",
			stats.Canceled, stats.Completed, stats.InFlightCompiles)
	}
}
