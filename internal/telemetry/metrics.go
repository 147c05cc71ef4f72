package telemetry

// Prometheus-style metrics: counters, gauges and fixed-bucket histograms
// collected in a Registry and served in the Prometheus text exposition
// format (version 0.0.4). The implementation is a small, dependency-free
// subset of the client_golang vocabulary: updates are single atomic
// operations (safe for concurrent use, cheap enough for per-job paths)
// and exposition is deterministic — families sort by name, vec children
// by label value, so the output is golden-testable byte for byte.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a set of metric families and renders them as Prometheus
// text. One process-wide registry per server is the intended shape
// (internal/service creates one and serves it at GET /metrics); tests
// create throwaway registries. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// family is one named metric family: a single collector or a labeled set
// of children.
type family struct {
	name, help, typ string
	label           string // vec label key ("" for unlabeled)

	// Exactly one of the following is set.
	counter   *Counter
	gauge     *Gauge
	valueFn   func() float64
	histogram *Histogram
	children  func() map[string]uint64 // a vec's current values by label value
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register adds a family, panicking on duplicate names — two instruments
// fighting over one series is a programming error, not a runtime
// condition.
func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("telemetry: metric %q registered twice", f.name))
	}
	r.families[f.name] = f
}

// NewCounter registers and returns a monotonically increasing counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", counter: c})
	return c
}

// NewCounterFunc registers a counter whose value is read from fn at
// exposition time — the bridge for counts that already live in an atomic
// elsewhere (the engine's lane accounting).
func (r *Registry) NewCounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "counter", valueFn: fn})
}

// NewCounterVec registers a counter family labeled by one key (e.g.
// strategy, result); children are created on first use via With.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{children: make(map[string]*Counter)}
	r.register(&family{name: name, help: help, typ: "counter", label: label, children: v.Snapshot})
	return v
}

// NewCounterVecFunc registers a labeled counter family whose children are
// read from fn at exposition time: NewCounterFunc for counts that live
// elsewhere one per label value (the engine's job ledger).
func (r *Registry) NewCounterVecFunc(name, help, label string, fn func() map[string]uint64) {
	r.register(&family{name: name, help: help, typ: "counter", label: label, children: fn})
}

// NewGauge registers and returns an integer gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", gauge: g})
	return g
}

// NewGaugeFunc registers a gauge whose value is read from fn at
// exposition time (queue depth, uptime).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", valueFn: fn})
}

// NewHistogram registers and returns a fixed-bucket histogram. buckets
// are the upper bounds, strictly increasing; the +Inf bucket is implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not strictly increasing at %d", name, i))
		}
	}
	h := &Histogram{buckets: append([]float64(nil), buckets...), counts: make([]atomic.Uint64, len(buckets)+1)}
	r.register(&family{name: name, help: help, typ: "histogram", histogram: h})
	return h
}

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a set of counters distinguished by one label value.
type CounterVec struct {
	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for the label value, creating it on
// first use.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c == nil {
		c = &Counter{}
		v.children[value] = c
	}
	return c
}

// Snapshot returns the current child values keyed by label value.
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make(map[string]uint64, len(v.children))
	for val, c := range v.children {
		out[val] = c.Value()
	}
	return out
}

// Gauge is an integer gauge.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: cumulative bucket counts, a
// total count and a sum, all updated atomically.
type Histogram struct {
	buckets []float64
	// counts[i] counts observations ≤ buckets[i]; the last slot is the
	// +Inf overflow. Non-cumulative internally; exposition accumulates.
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-added
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the cumulative per-bucket counts (ending with the
// +Inf bucket, which equals Count up to racing updates).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// ExponentialBuckets returns count bucket bounds starting at start and
// growing by factor: the standard shape for latency histograms.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// formatFloat renders a metric value the way Prometheus expects: shortest
// round-trip representation, +Inf spelled literally.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name and vec children by label value.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.typ)
		switch {
		case f.counter != nil:
			fmt.Fprintf(&sb, "%s %d\n", f.name, f.counter.Value())
		case f.gauge != nil:
			fmt.Fprintf(&sb, "%s %d\n", f.name, f.gauge.Value())
		case f.valueFn != nil:
			fmt.Fprintf(&sb, "%s %s\n", f.name, formatFloat(f.valueFn()))
		case f.children != nil:
			snap := f.children()
			vals := make([]string, 0, len(snap))
			for v := range snap {
				vals = append(vals, v)
			}
			sort.Strings(vals)
			for _, v := range vals {
				fmt.Fprintf(&sb, "%s{%s=%q} %d\n", f.name, f.label, escapeLabel(v), snap[v])
			}
		case f.histogram != nil:
			h := f.histogram
			cum := h.BucketCounts()
			for i, ub := range h.buckets {
				fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", f.name, formatFloat(ub), cum[i])
			}
			fmt.Fprintf(&sb, "%s_bucket{le=\"+Inf\"} %d\n", f.name, cum[len(cum)-1])
			fmt.Fprintf(&sb, "%s_sum %s\n", f.name, formatFloat(h.Sum()))
			fmt.Fprintf(&sb, "%s_count %d\n", f.name, h.Count())
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}
