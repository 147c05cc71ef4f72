package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer, made from this package: every span
// in a trace surrounds an exported function of the program under test,
// none is recorded inside it. parent is the span whose work this call
// replays a part of (-1 for an outermost call); job is the request (or
// batch) index all spans of one request share. Probe spans feed the
// per-layer metrics; the others form the workload's onion and feed the
// ledger.
type span struct {
	name, layer string
	parent, job int32
	probe       bool
	start, end  int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	probe bool
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// call runs f inside a new span and returns the span's id.
func (t *tracer) call(layer, name string, parent, job int, f func()) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, layer: layer, parent: int32(parent), job: int32(job), probe: t.probe})
	start := time.Since(t.epoch)
	f()
	end := time.Since(t.epoch)
	t.spans[id].start, t.spans[id].end = int64(start), int64(end)
	return id
}

func (s *span) dur() int64 { return s.end - s.start }

// selfTimes returns, per span, its duration minus the durations of the
// spans that name it as parent. Children are replays made after the
// parent returned, not nested inside it, so a self time can be negative
// (a replay that ran slower than the original); it is kept as measured.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// total sums the probe spans called name, in µs, and counts them. With
// self == nil it sums durations, otherwise the given per-span self times.
func (t *tracer) total(name string, self []int64) (us float64, n int) {
	for i := range t.spans {
		if s := &t.spans[i]; s.probe && s.name == name {
			if self != nil {
				us += float64(self[i]) / 1e3
			} else {
				us += float64(s.dur()) / 1e3
			}
			n++
		}
	}
	return us, n
}

// perCall is total per span: the mean µs of one call; 0 when the probe
// never ran (a tiny sample without, say, a retried loop).
func (t *tracer) perCall(name string, self []int64) float64 {
	us, n := t.total(name, self)
	return us / float64(max(1, n))
}

// ledger is a workload's per-loop cost ledger: every layer's self time
// from the traced onion pass, their sum, and the end-to-end per-loop time
// a caller waited in the untraced pass over the same kind of window.
type ledger struct {
	Rows []ledgerRow `json:"rows"`
	// SumUs is the sum of the layer self times; it equals the traced
	// outermost calls' time per loop, because self times telescope.
	SumUs float64 `json:"sum_us"`
	// EndToEndUs is callers x wall / jobs of the untraced pass.
	EndToEndUs   float64 `json:"end_to_end_us"`
	ResidualFrac float64 `json:"residual_frac"`
	Jobs         int     `json:"jobs"`
}

type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"`
	Share  float64 `json:"share"`
}

// newLedger reduces the onion spans to per-layer self times per loop.
func (t *tracer) newLedger(jobs int, endToEndUs float64) *ledger {
	self := t.selfTimes()
	byLayer := map[string]int64{}
	for i := range t.spans {
		if !t.spans[i].probe {
			byLayer[t.spans[i].layer] += self[i]
		}
	}
	l := &ledger{EndToEndUs: endToEndUs, Jobs: jobs}
	for layer, ns := range byLayer {
		us := float64(ns) / 1e3 / float64(jobs)
		l.Rows = append(l.Rows, ledgerRow{Layer: layer, SelfUs: us})
		l.SumUs += us
	}
	slices.SortFunc(l.Rows, func(a, b ledgerRow) int { return cmp.Compare(b.SelfUs, a.SelfUs) })
	for i := range l.Rows {
		l.Rows[i].Share = l.Rows[i].SelfUs / l.SumUs
	}
	l.ResidualFrac = (endToEndUs - l.SumUs) / endToEndUs
	return l
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "  ledger over %d loops (self time per loop):\n", l.Jobs)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "    %-10s %10.3f us %6.1f%%\n", r.Layer, r.SelfUs, 100*r.Share)
	}
	fmt.Fprintf(w, "    %-10s %10.3f us\n    %-10s %10.3f us (untraced)\n    %-10s %10.4f\n",
		"sum", l.SumUs, "end-to-end", l.EndToEndUs, "residual", l.ResidualFrac)
}

// writeChrome writes the spans as Chrome trace-event JSON (the object
// flavour chrome://tracing and Perfetto load): one track per layer, one
// complete event per span, with the job, the span id and its parent in
// args — replays follow their parent in time rather than nesting in it,
// so the parent link is data, not geometry.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	tids := map[string]int{}
	var events []event
	for i := range t.spans {
		s := &t.spans[i]
		tid, ok := tids[s.layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.layer] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", PID: 1, TID: tid, Args: map[string]any{"name": s.layer}})
		}
		cat := "onion"
		if s.probe {
			cat = "probe"
		}
		events = append(events, event{
			Name: s.name, Cat: cat, Ph: "X", PID: 1, TID: tid,
			TS: float64(s.start) / 1e3, Dur: max(0.001, float64(s.dur())/1e3),
			Args: map[string]any{"id": i, "parent": s.parent, "job": s.job},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
