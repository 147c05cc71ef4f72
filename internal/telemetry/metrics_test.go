package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusGolden pins the text exposition byte for byte:
// families sorted by name, vec children by label value, histogram buckets
// cumulative with the implicit +Inf, floats in shortest round-trip form.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("app_events_total", "Events seen.")
	c.Add(7)
	g := r.NewGauge("app_queue_length", "Tickets waiting.")
	g.Set(3)
	r.NewGaugeFunc("app_uptime_seconds", "Seconds since start.", func() float64 { return 12.5 })
	v := r.NewCounterVec("app_jobs_total", "Jobs by strategy.", "strategy")
	v.With("paper").Add(5)
	v.With("moddist").Inc()
	r.NewCounterVecFunc("app_lookups_total", "Lookups by result.", "result",
		func() map[string]uint64 { return map[string]uint64{"miss": 2, "hit": 9} })
	h := r.NewHistogram("app_latency_seconds", "Latency.", []float64{0.5, 1, 2})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP app_events_total Events seen.
# TYPE app_events_total counter
app_events_total 7
# HELP app_jobs_total Jobs by strategy.
# TYPE app_jobs_total counter
app_jobs_total{strategy="moddist"} 1
app_jobs_total{strategy="paper"} 5
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.5"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="2"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 6
app_latency_seconds_count 3
# HELP app_lookups_total Lookups by result.
# TYPE app_lookups_total counter
app_lookups_total{result="hit"} 9
app_lookups_total{result="miss"} 2
# HELP app_queue_length Tickets waiting.
# TYPE app_queue_length gauge
app_queue_length 3
# HELP app_uptime_seconds Seconds since start.
# TYPE app_uptime_seconds gauge
app_uptime_seconds 12.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHistogramBucketMath checks bucket assignment at and around the
// bounds: observations land in the first bucket whose upper bound admits
// them (le semantics), overflow goes to +Inf, and sum/count track exactly.
func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 3, 4, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.0000001, 2}; le=4: +{3, 4}; +Inf: +{100}.
	want := []uint64{2, 4, 6, 7}
	got := h.BucketCounts()
	if len(got) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d: got %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if sum := h.Sum(); math.Abs(sum-111.5000001) > 1e-6 {
		t.Errorf("sum = %v, want ~111.5", sum)
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %v, want %v", i, got[i], want[i])
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("buckets not increasing at %d", i)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("second registration of one name did not panic")
		}
	}()
	r.NewGauge("dup", "")
}

func TestHistogramRejectsUnsortedBuckets(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-increasing buckets did not panic")
		}
	}()
	r.NewHistogram("bad", "", []float64{1, 1})
}

// TestRegistryConcurrent hammers every instrument kind from many
// goroutines while the exposition renders — the -race run of the suite
// proves the registry is safe on per-job hot paths.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c", "")
	g := r.NewGauge("g", "")
	v := r.NewCounterVec("v", "", "k")
	h := r.NewHistogram("h", "", ExponentialBuckets(0.001, 2, 10))

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			label := string(rune('a' + w%4))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				v.With(label).Inc()
				h.Observe(float64(i) * 0.0001)
				if i%100 == 0 {
					r.WritePrometheus(&strings.Builder{})
				}
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), workers*perWorker)
	}
	if g.Value() != workers*perWorker {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*perWorker)
	}
	var vecTotal uint64
	for _, n := range v.Snapshot() {
		vecTotal += n
	}
	if vecTotal != workers*perWorker {
		t.Errorf("vec total = %d, want %d", vecTotal, workers*perWorker)
	}
	if h.Count() != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
	cum := h.BucketCounts()
	if cum[len(cum)-1] != h.Count() {
		t.Errorf("cumulative +Inf bucket = %d, want count %d", cum[len(cum)-1], h.Count())
	}
}
