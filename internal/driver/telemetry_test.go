package driver

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"clusched/internal/telemetry"
)

// promValue reads one counter series out of a Prometheus text exposition;
// a series the exposition lacks reads 0, as it does to a scraper.
func promValue(text, series string) uint64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// TestEngineMetrics drives a batch through an instrumented engine and
// checks the registry: jobs counted per strategy, cache lookups
// classified, compile latency and II attempts observed for every
// non-cached compilation — and the exposition carries the series.
func TestEngineMetrics(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")
	reg := telemetry.NewRegistry()
	c := New(Config{Workers: 2, Registry: reg})

	outs, err := collect(context.Background(), c, jobs)
	if err != nil {
		t.Fatal(err)
	}
	// Recompile the same batch: every job should now be a cache hit.
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}

	text := exposition(t, reg)
	if got := promValue(text, `clusched_jobs_total{strategy="paper"}`); got != uint64(2*len(jobs)) {
		t.Errorf("jobs{paper} = %d, want %d", got, 2*len(jobs))
	}
	misses := promValue(text, `clusched_cache_lookups_total{result="miss"}`)
	hits := promValue(text, `clusched_cache_lookups_total{result="hit"}`)
	if misses != uint64(len(jobs)) || hits != uint64(len(jobs)) {
		t.Errorf("cache lookups: %d misses, %d hits; want %d each", misses, hits, len(jobs))
	}
	if got := c.metrics.compileSeconds.Count(); got != uint64(len(jobs)) {
		t.Errorf("compileSeconds observed %d compilations, want %d (cached runs excluded)", got, len(jobs))
	}
	if got := c.metrics.iiAttempts.Count(); got != uint64(len(jobs)) {
		t.Errorf("iiAttempts observed %d compilations, want %d", got, len(jobs))
	}
	// The attempt histogram's sum is the total attempts: each compilation
	// contributes 1 + its tallied II increases.
	wantAttempts := 0.0
	for _, out := range outs {
		wantAttempts++
		for _, n := range out.Result.IIIncreases {
			wantAttempts += float64(n)
		}
	}
	if got := c.metrics.iiAttempts.Sum(); got != wantAttempts {
		t.Errorf("iiAttempts sum = %v, want %v", got, wantAttempts)
	}

	for _, series := range []string{
		"clusched_compile_seconds_bucket",
		"clusched_ii_attempts_count",
		`clusched_cache_lookups_total{result="hit"}`,
		`clusched_jobs_total{strategy="paper"}`,
		"clusched_spec_lanes_raced_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition lacks %s", series)
		}
	}
}

// TestOutcomeElapsed pins the Elapsed stamp: real compilations report a
// positive duration, cached answers report zero.
func TestOutcomeElapsed(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")[:4]
	c := New(Config{Workers: 1})
	ctx := context.Background()

	for i, j := range jobs {
		out := c.do(ctx, j, "compile", time.Now())
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
		if out.CacheHit {
			t.Fatalf("job %d cached on first sight", i)
		}
		if out.Elapsed <= 0 {
			t.Errorf("job %d: fresh compile Elapsed = %v, want > 0", i, out.Elapsed)
		}
	}
	out := c.do(ctx, jobs[0], "compile", time.Now())
	if !out.CacheHit {
		t.Fatal("repeat job missed the cache")
	}
	if out.Elapsed != 0 {
		t.Errorf("cached outcome Elapsed = %v, want 0", out.Elapsed)
	}
}

// TestEngineTrace checks the engine-level trace: per-worker job spans with
// machine/strategy/queue-wait annotations, cache classification spans, and
// per-job traces overriding the engine's.
func TestEngineTrace(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")[:6]
	tr := telemetry.NewTrace()
	c := New(Config{Workers: 2, Trace: tr})
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}

	sum := tr.Summary()
	if sum.Tracks < 1 {
		t.Fatal("no tracks recorded")
	}
	if sum.Spans < len(jobs) {
		t.Fatalf("%d spans for %d jobs", sum.Spans, len(jobs))
	}

	// A per-job trace takes precedence over the engine's.
	own := telemetry.NewTrace()
	j := jobs[0]
	j.Trace = own
	before := tr.Summary().Spans
	if out := c.do(context.Background(), j, "compile", time.Now()); out.Err != nil {
		t.Fatal(out.Err)
	}
	if own.Summary().Spans == 0 {
		t.Error("job-level trace recorded nothing")
	}
	if after := tr.Summary().Spans; after != before {
		t.Errorf("engine trace grew %d spans while a job-level trace was attached", after-before)
	}
}

// TestJobSpanAnnotations decodes the trace JSON and checks every job span
// carries the machine, strategy, cached flag and a non-negative queue
// wait.
func TestJobSpanAnnotations(t *testing.T) {
	jobs := sampleJobs(t, "tomcatv")[:4]
	tr := telemetry.NewTrace()
	c := New(Config{Workers: 2, Trace: tr})
	if _, err := collect(context.Background(), c, jobs); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Cat  string         `json:"cat"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	jobSpans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat != "job" {
			continue
		}
		jobSpans++
		if ev.Args["machine"] == nil || ev.Args["strategy"] == nil {
			t.Errorf("job span args missing machine/strategy: %v", ev.Args)
		}
		wait, ok := ev.Args["queue_wait_ms"].(float64)
		if !ok || wait < 0 {
			t.Errorf("job span queue_wait_ms = %v", ev.Args["queue_wait_ms"])
		}
	}
	if jobSpans != len(jobs) {
		t.Errorf("%d job spans for %d jobs", jobSpans, len(jobs))
	}
}
