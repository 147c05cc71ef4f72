package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"strconv"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/telemetry"
)

// TestTracedCompileMatchesUntraced proves tracing is observation only: the
// traced compilation returns the same Result as the plain one.
func TestTracedCompileMatchesUntraced(t *testing.T) {
	g := commBound(t)
	m := machine.MustParse("4c1b2l64r")
	opts := Options{Replicate: true, VerifySchedules: true}

	plain, perr := Search(context.Background(), g, m, opts, SearchConfig{})
	traced, terr := Search(context.Background(), g, m, opts, SearchConfig{Trace: telemetry.NewTrace(), Track: "t"})
	requireSameResult(t, g.Name, traced, plain, terr, perr)
}

// TestTraceRecordsAttemptsAndPasses checks the span tree of one traced II
// search: one attempt span per II tried (named II=n, the last accepted),
// pass spans within, all on the requested track.
func TestTraceRecordsAttemptsAndPasses(t *testing.T) {
	g := commBound(t)
	m := machine.MustParse("4c1b2l64r")

	tr := telemetry.NewTrace()
	res, err := Search(context.Background(), g, m, Options{}, SearchConfig{Trace: tr, Track: "compile"})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}

	attempts, passes := 0, 0
	acceptedName := ""
	for _, ev := range doc.TraceEvents {
		switch ev.Cat {
		case "attempt":
			attempts++
			if ev.Args["outcome"] == "accept" {
				acceptedName = ev.Name
			} else if ev.Args["cause"] == nil {
				t.Errorf("failed attempt %s without a cause arg", ev.Name)
			}
		case "pass":
			passes++
		}
	}
	// Skip-ahead may prove intervals failed without running them, so the
	// recorded attempts are a lower bound of 1 + IIIncreases and at least
	// the accepted one.
	if attempts < 1 {
		t.Fatal("no attempt spans recorded")
	}
	if passes < attempts {
		t.Errorf("%d pass spans for %d attempts", passes, attempts)
	}
	if want := "II=" + strconv.Itoa(res.II); acceptedName != want {
		t.Errorf("accepted attempt span named %q, want %q", acceptedName, want)
	}
}

// TestTracingOffAddsZeroAllocs is the zero-overhead-when-off pin. Traced,
// speculative and plain compilations share one search loop and one attempt
// body, so the pin is absolute: a warm-arena Search with only Arena set
// allocates the Result and the accepted schedule's six objects (sched's
// accept) — on a first-try compilation and on one that fails six attempts
// on the buses alike, since a failed attempt leaves nothing behind. A lane
// struct, a cancel context, a WaitGroup or a boxed trace argument leaking
// onto the plain path fails here by name.
func TestTracingOffAddsZeroAllocs(t *testing.T) {
	m := machine.MustParse("4c1b2l64r")
	ctx := context.Background()
	for _, c := range []struct {
		name string
		g    *ddg.Graph
		want float64
	}{
		{"commBound", commBound(t), 7},
		{"hardLoop", hardLoop(t, m), 7},
	} {
		arena := NewArena()
		compile := func() {
			if _, err := Search(ctx, c.g, m, Options{}, SearchConfig{Arena: arena}); err != nil {
				t.Fatal(err)
			}
		}
		compile() // warm the arena so the measurement sees the steady state
		if got := testing.AllocsPerRun(20, compile); got > c.want {
			t.Errorf("%s: warm-arena Search allocates %.1f objects, want ≤ %.0f", c.name, got, c.want)
		}
	}
}
