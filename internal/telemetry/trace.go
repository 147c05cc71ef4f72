// Package telemetry is the instrumentation layer of the compilation
// stack: execution tracing (Chrome trace-event JSON, inspectable in
// chrome://tracing or Perfetto) and a Prometheus-style metrics registry
// (counters, gauges, fixed-bucket histograms with text exposition).
//
// The package is deliberately dependency-free — everything above it
// (pipeline, driver, service, the CLIs) can import it without cycles —
// and built around one contract: telemetry off must cost nothing. A nil
// *Trace is a valid tracer whose methods no-op, and the hot paths
// (the II attempt loop, the batch workers) guard every recording site
// with a nil check so the tracing-off path executes the exact
// instructions it executed before telemetry existed; the alloc-pin tests
// in internal/pipeline hold that property at zero additional
// allocations. Metric instruments are single atomic operations, cheap
// enough to stay on unconditionally wherever a registry is configured.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace accumulates the timed spans of one compilation, batch or process
// and renders them as Chrome trace-event JSON. One Trace is shared by
// every goroutine contributing to the traced work (batch workers);
// recording is mutex-serialized, which is fine at span granularity (one
// span per pass, not per instruction). The zero value is not usable; call
// NewTrace. A nil *Trace is valid and records nothing.
type Trace struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	tracks map[string]int
	order  []string // track names in tid order, for the metadata events
}

// span is one recorded event. phase 'X' is a complete (duration) event,
// 'i' an instant.
type span struct {
	name  string
	cat   string
	tid   int
	phase byte
	start time.Duration
	dur   time.Duration
	args  []Arg
}

// Arg is one key/value annotation on a span; values must be
// JSON-marshalable (numbers, strings, bools).
type Arg struct {
	Key string
	Val any
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace {
	return &Trace{epoch: time.Now(), tracks: make(map[string]int)}
}

// Now returns the trace-relative timestamp: the span-start currency of
// Span. Zero on a nil trace.
func (t *Trace) Now() time.Duration {
	if t == nil {
		return 0
	}
	return time.Since(t.epoch)
}

// At converts a wall-clock instant to the trace's relative time; instants
// before the epoch clamp to zero (a queue entered before tracing began).
func (t *Trace) At(when time.Time) time.Duration {
	if t == nil {
		return 0
	}
	d := when.Sub(t.epoch)
	if d < 0 {
		d = 0
	}
	return d
}

// Track returns the track (Chrome tid) with the given name, allocating it
// on first use. Spans on one track render as one horizontal lane and nest
// by time containment, so sequential work (a worker's jobs, the attempts
// of one compilation) shares a track and concurrent work (another
// worker) gets its own. Returns 0 on a nil trace.
func (t *Trace) Track(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if tid, ok := t.tracks[name]; ok {
		return tid
	}
	tid := len(t.order) + 1
	t.tracks[name] = tid
	t.order = append(t.order, name)
	return tid
}

// Span records a complete event on the track: it began at start (a Now
// value) and ends now. No-op on a nil trace.
func (t *Trace) Span(tid int, cat, name string, start time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, cat: cat, tid: tid, phase: 'X', start: start, dur: end - start, args: args})
	t.mu.Unlock()
}

// Instant records a zero-duration marker event on the track (rendered as
// a vertical tick): skip-ahead jumps, cancellations. No-op on a nil
// trace.
func (t *Trace) Instant(tid int, cat, name string, args ...Arg) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, cat: cat, tid: tid, phase: 'i', start: now, args: args})
	t.mu.Unlock()
}

// Summary condenses a trace for log lines and the stream done frame.
type Summary struct {
	// Spans and Tracks are the recorded event and track counts.
	Spans  int
	Tracks int
	// Wall is the span of trace time covered, epoch to the latest event
	// end.
	Wall time.Duration
}

// Summary returns the trace's current summary; zero on a nil trace.
func (t *Trace) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := Summary{Spans: len(t.spans), Tracks: len(t.order)}
	for i := range t.spans {
		if end := t.spans[i].start + t.spans[i].dur; end > s.Wall {
			s.Wall = end
		}
	}
	return s
}

// event is the Chrome trace-event JSON shape of one span.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// document is the JSON-object flavor of the trace-event format, which
// both chrome://tracing and Perfetto accept.
type document struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

const tracePID = 1

// WriteJSON renders the trace as Chrome trace-event JSON: one
// thread_name metadata event per track, then every recorded span, sorted
// by start time so the file diffs stably. An empty (or nil) trace writes
// a valid document with no events.
func (t *Trace) WriteJSON(w io.Writer) error {
	doc := document{TraceEvents: []event{}, DisplayTimeUnit: "ms"}
	if t != nil {
		t.mu.Lock()
		spans := make([]span, len(t.spans))
		copy(spans, t.spans)
		order := make([]string, len(t.order))
		copy(order, t.order)
		t.mu.Unlock()

		for i, name := range order {
			doc.TraceEvents = append(doc.TraceEvents, event{
				Name: "thread_name", Ph: "M", PID: tracePID, TID: i + 1,
				Args: map[string]any{"name": name},
			})
		}
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for _, sp := range spans {
			ev := event{
				Name: sp.name, Cat: sp.cat, PID: tracePID, TID: sp.tid,
				TS: float64(sp.start.Nanoseconds()) / 1e3,
			}
			switch sp.phase {
			case 'X':
				ev.Ph = "X"
				ev.Dur = float64(sp.dur.Nanoseconds()) / 1e3
				// Zero-duration complete events vanish in some viewers;
				// give them a visible sliver.
				if ev.Dur <= 0 {
					ev.Dur = 0.001
				}
			case 'i':
				ev.Ph = "i"
				ev.S = "t" // thread-scoped instant
			default:
				return fmt.Errorf("telemetry: unknown span phase %q", sp.phase)
			}
			if len(sp.args) > 0 {
				ev.Args = make(map[string]any, len(sp.args))
				for _, a := range sp.args {
					ev.Args[a.Key] = a.Val
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
