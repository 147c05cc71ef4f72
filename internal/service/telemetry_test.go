package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// promValue extracts one series' value from a Prometheus text exposition.
func promValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(series)+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition", series)
	return 0
}

// heldStore is a Store behind a gate: Load waits at the gate (for the loops
// it holds) and then asks the store.
type heldStore struct {
	driver.Store
	gate *loopGateStore
}

func (h heldStore) Load(j driver.Job) (*pipeline.Result, error, bool) {
	h.gate.Load(j)
	return h.Store.Load(j)
}

// TestMetricsEndpointAgreesWithStats is the single-source-of-truth check:
// GET /metrics and GET /stats are read-outs of the same cells, so their
// numbers must match exactly — here after a restarted server has answered
// one job in each of the six ways there are (exact hit, flight join,
// semantic hit, store hit, semantic store hit, miss), with every ticket's
// trace naming the tier that answered.
func TestMetricsEndpointAgreesWithStats(t *testing.T) {
	loops := testJobs(t, "tomcatv", 4) // no two isomorphic
	clones := cloneJobs(t, loops)
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s0 := New(Config{Store: cache})
	id, err := s0.Submit(loops[2:4], SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s0, id)
	s0.Shutdown(context.Background())
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if cache, err = OpenDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	defer cache.Close()

	gate := newLoopGateStore(loops[1].Graph.Name)
	s := New(Config{Runners: 2, Store: heldStore{cache, gate}})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(jobs ...driver.Job) string {
		t.Helper()
		req := wire.SubmitRequest{Trace: true}
		for _, j := range jobs {
			wj, err := wire.EncodeJob(j)
			if err != nil {
				t.Fatal(err)
			}
			req.Jobs = append(req.Jobs, wj)
		}
		var sub wire.SubmitResponse
		if code := postJSON(t, ts.URL+"/batch", req, &sub); code != http.StatusAccepted {
			t.Fatalf("POST /batch: %d", code)
		}
		return sub.ID
	}

	// A flight: the leader is held at the gate while an identical job from
	// another ticket arrives. (Whether that job has joined the flight when
	// the gate opens is the scheduler's business; a moment later it is an
	// exact hit instead. Both are the "hit" label; the driver's
	// TestAnswerVocabulary pins the join itself.)
	leader := submit(loops[1])
	<-gate.first
	follower := submit(loops[1])
	until(t, "both tickets to be running", func() bool { return s.Stats().InFlight == 2 })
	gate.release(loops[1].Graph.Name)
	tickets := []string{leader, follower,
		submit(loops[0], loops[2], clones[3]), // miss, store hit, semantic store hit
	}
	pollDone(t, ts.URL, tickets[2])
	tickets = append(tickets, submit(loops[0], clones[0])) // exact hit, semantic hit
	spans := map[string]int{}
	for _, id := range tickets {
		pollDone(t, ts.URL, id)
		var doc struct {
			TraceEvents []struct{ Cat, Name string } `json:"traceEvents"`
		}
		if code := getJSON(t, ts.URL+"/jobs/"+id+"/trace", &doc); code != http.StatusOK {
			t.Fatalf("GET trace of %s: %d", id, code)
		}
		for _, ev := range doc.TraceEvents {
			if ev.Cat == "cache" {
				spans[ev.Name]++
			}
		}
	}
	spans["lru-hit"] += spans["flight-join"]
	delete(spans, "flight-join")
	if want := map[string]int{"lru-hit": 2, "semantic-hit": 1, "store-hit": 1, "semantic-store-hit": 1}; !reflect.DeepEqual(spans, want) {
		t.Errorf("cache spans %v, want %v (a flight-join counted as an lru-hit)", spans, want)
	}

	var st wire.ServiceStats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("GET /stats: %d", code)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(blob)

	for series, want := range map[string]float64{
		`clusched_tickets_total{event="submitted"}`:       float64(st.Submitted),
		`clusched_tickets_total{event="completed"}`:       float64(st.Completed),
		"clusched_service_jobs_completed_total":           float64(st.JobsCompiled),
		`clusched_jobs_submitted_total{strategy="paper"}`: float64(st.Strategies["paper"].JobsSubmitted),
		"clusched_queue_length":                           float64(st.Queued),
		"clusched_inflight_batches":                       float64(st.InFlight),
	} {
		if got := promValue(t, text, series); got != want {
			t.Errorf("%s = %g, /stats says %g", series, got, want)
		}
	}
	// The engine's ledger, label by label: /metrics, /stats cache.*, the
	// per-strategy slice of /stats and the script above all agree.
	paper := st.Strategies["paper"]
	var lookups uint64
	for _, l := range []struct {
		label          string
		cache, bySlice uint64
		want           uint64
	}{
		{"hit", st.Cache.Hits, paper.CacheHits, 2},
		{"miss", st.Cache.Misses, paper.CacheMisses, 2},
		{"store_hit", st.Cache.StoreHits, paper.StoreHits, 1},
		{"semantic_hit", st.Cache.SemanticHits, paper.SemanticHits, 1},
		{"semantic_store_hit", st.Cache.SemanticStoreHits, paper.SemanticStoreHits, 1},
	} {
		got := promValue(t, text, `clusched_cache_lookups_total{result="`+l.label+`"}`)
		if got != float64(l.want) || l.cache != l.want || l.bySlice != l.want {
			t.Errorf("%s: /metrics %g, /stats cache %d, /stats strategies.paper %d, want %d", l.label, got, l.cache, l.bySlice, l.want)
		}
		lookups += l.want
	}
	// One strategy, no cancellations: every job is a lookup.
	if got := promValue(t, text, `clusched_jobs_total{strategy="paper"}`); got != float64(lookups) {
		t.Errorf("jobs_total{paper} = %g, the five lookup counters sum to %d", got, lookups)
	}
	// The latency histogram observed every non-cached compilation.
	if got := promValue(t, text, "clusched_compile_seconds_count"); got != float64(st.Cache.Misses) {
		t.Errorf("compile_seconds_count = %g, want %g (one per cache miss)", got, float64(st.Cache.Misses))
	}
}

func TestHealthzBuildInfo(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var h wire.HealthResponse
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("GET /healthz: %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.GoVersion == "" {
		t.Error("go_version empty — runtime/debug.ReadBuildInfo not consulted")
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptime_sec = %v", h.UptimeSec)
	}
}

// TestJobTraceEndpoint submits a traced batch and fetches its Chrome
// trace: valid JSON with service + job + attempt spans. Untraced tickets
// and unknown IDs answer 404.
func TestJobTraceEndpoint(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "tomcatv", 2)
	var sub wire.SubmitResponse
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs, Trace: true}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	pollDone(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	cats := map[string]int{}
	for _, ev := range doc.TraceEvents {
		cats[ev.Cat]++
	}
	for _, cat := range []string{"service", "job", "attempt", "pass"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q spans (got %v)", cat, cats)
		}
	}

	// An untraced ticket has no trace to serve.
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	pollDone(t, ts.URL, sub.ID)
	if resp, err := http.Get(ts.URL + "/jobs/" + sub.ID + "/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("untraced ticket trace: %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(ts.URL + "/jobs/nosuch/trace"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown ticket trace: %d, want 404", resp.StatusCode)
		}
	}
}

// TestStreamDoneFrameCarriesTraceSummary checks the additive stream field:
// a traced batch's done frame summarizes the recording.
func TestStreamDoneFrameCarriesTraceSummary(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "tomcatv", 2)
	var sub wire.SubmitResponse
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs, Trace: true}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	resp, err := http.Get(ts.URL + "/batch/" + sub.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var f wire.Frame
		if err := dec.Decode(&f); err != nil {
			t.Fatalf("stream ended without done frame: %v", err)
		}
		if f.Type != wire.FrameDone {
			continue
		}
		if f.Trace == nil {
			t.Fatal("done frame of a traced batch has no trace summary")
		}
		if f.Trace.Spans == 0 || f.Trace.Tracks == 0 {
			t.Errorf("trace summary = %+v, want non-zero spans and tracks", *f.Trace)
		}
		return
	}
}

// TestAccessLogAndRequestIDs checks the HTTP middleware: one structured
// line per request with method, path, status and a request ID; a caller's
// X-Request-ID is echoed into the log and the response.
func TestAccessLogAndRequestIDs(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{Logger: logger, AccessLog: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-7" {
		t.Errorf("X-Request-ID echoed as %q", got)
	}
	if _, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}

	log := buf.String()
	if !strings.Contains(log, "msg=request") ||
		!strings.Contains(log, "path=/stats") ||
		!strings.Contains(log, "request_id=caller-chosen-7") {
		t.Errorf("access log missing request line for /stats:\n%s", log)
	}
	if !strings.Contains(log, "path=/healthz") || !strings.Contains(log, "request_id=req-") {
		t.Errorf("access log missing generated request ID for /healthz:\n%s", log)
	}
	if !strings.Contains(log, "status=200") || !strings.Contains(log, "method=GET") {
		t.Errorf("access log missing status/method:\n%s", log)
	}
}

// TestQuietSuppressesAccessLog pins the -quiet contract: lifecycle logs
// still flow, per-request lines do not.
func TestQuietSuppressesAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{Logger: logger, AccessLog: false})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "tomcatv", 1)
	var sub wire.SubmitResponse
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	pollDone(t, ts.URL, sub.ID)

	log := buf.String()
	if strings.Contains(log, "msg=request") {
		t.Errorf("access log emitted with AccessLog off:\n%s", log)
	}
	if !strings.Contains(log, "ticket done") {
		t.Errorf("lifecycle log missing with AccessLog off:\n%s", log)
	}
}

// TestSlowCompileLog drops the threshold to a nanosecond so every real
// compilation trips the warning, and checks the trace summary rides along
// for traced tickets.
func TestSlowCompileLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	s := New(Config{Logger: logger, SlowCompile: time.Nanosecond, TraceJobs: true})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wjs := encodeBatch(t, "tomcatv", 1)
	var sub wire.SubmitResponse
	if code := postJSON(t, ts.URL+"/batch", wire.SubmitRequest{Jobs: wjs}, &sub); code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d", code)
	}
	pollDone(t, ts.URL, sub.ID)

	log := buf.String()
	if !strings.Contains(log, "slow compilation") {
		t.Fatalf("no slow-compilation warning at a 1ns threshold:\n%s", log)
	}
	if !strings.Contains(log, "trace_spans=") {
		t.Errorf("slow-compilation warning lacks the trace summary:\n%s", log)
	}
	if !strings.Contains(log, "level=WARN") {
		t.Errorf("slow-compilation logged below WARN:\n%s", log)
	}
}
