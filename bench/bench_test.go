package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny is the smoke test's size: a few hundred jobs per workload, one
// set-up.
var tiny = config{seed: 1, scale: 0.004, minSetups: 1, maxSetups: 1}

// digest hashes what the workload would hand the backend in its first
// window.
func digest(w workloadDef, cfg config) uint64 {
	in := w.setup(cfg)
	defer in.close()
	h := fnv.New64a()
	var buf [8]byte
	for _, j := range in.gen(0).jobs {
		fp := j.Graph.Fingerprint()
		for i := range buf {
			buf[i] = byte(fp >> (8 * i))
		}
		h.Write(buf[:])
		h.Write([]byte(j.Machine.Name))
	}
	return h.Sum64()
}

func checkMetrics(t *testing.T, rec record, want []manifestMetric) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d, gate misses %v", rec.Workload, rec.Correct, rec.Attempted, rec.Failed, rec.Failures)
	}
	if len(rec.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", rec.Workload, len(rec.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", rec.Workload, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", rec.Workload, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: metric %s = %v", rec.Workload, m.Name, got.Value)
		case m.Bound != 0 && got.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", rec.Workload, m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale.
func TestSmoke(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) || len(man.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d workloads and %d per-layer metrics, the program has %d and %d",
			len(man.Workloads), len(man.PerLayer), len(workloads), len(perLayer))
	}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name || man.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, man.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			a, b := runEndToEnd(w, tiny), runEndToEnd(w, tiny)
			checkMetrics(t, a, man.EndToEnd)

			// What is exact must repeat exactly for one seed.
			if a.Attempted != b.Attempted || a.Failed != b.Failed {
				t.Errorf("attempted/failed %d/%d then %d/%d", a.Attempted, a.Failed, b.Attempted, b.Failed)
			}
			if x, y := a.Metrics["succeeded_frac"].Value, b.Metrics["succeeded_frac"].Value; x != 1 || y != 1 {
				t.Errorf("succeeded_frac %v then %v", x, y)
			}
			// Stealing decides which presentation a fleet node compiles
			// first; everywhere else the schedules are a function of the seed.
			if x, y := a.Metrics["ii_over_mii"].Value, b.Metrics["ii_over_mii"].Value; x != y && w.name != "fleet-mix" {
				t.Errorf("ii_over_mii %v then %v", x, y)
			}
			// One caller, in process: the engine's allocations repeat up to
			// the scratch arenas a GC cycle happens to drop between two jobs.
			if !raceDetector && (w.name == "suite-cold" || w.name == "cache-mix") {
				if x, y := a.Metrics["allocs_per_loop"].Value, b.Metrics["allocs_per_loop"].Value; math.Abs(x-y) > 0.02*x {
					t.Errorf("allocs_per_loop %v then %v", x, y)
				}
			}

			// One caller on one engine: the hit classes are exact too.
			if w.name == "cache-mix" && *a.Cache != *b.Cache {
				t.Errorf("cache answers %+v then %+v", *a.Cache, *b.Cache)
			}

			// Another seed, other jobs.
			other := tiny
			other.seed = 2
			if d1, d2 := digest(w, tiny), digest(w, other); d1 == d2 {
				t.Errorf("seeds 1 and 2 generate the same jobs (digest %x)", d1)
			}

			path := filepath.Join(t.TempDir(), "trace.json")
			tr, err := runTraced(w, tiny, path)
			var open *ledgerOpenError
			if errors.As(err, &open) {
				// The gate is calibrated for a full pass; a few hundred
				// jobs are allowed to miss it.
				t.Log(err)
				tr.Correct = true
			} else if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, tr, man.PerLayer)
			if tr.Ledger == nil || len(tr.Ledger.Rows) == 0 {
				t.Error("traced run printed no ledger")
			}
			if w.name == "suite-cold" {
				// Cache off: the counters say every job was a compilation.
				if f := tr.Metrics["driver.miss_frac"].Value; f != 1 {
					t.Errorf("driver.miss_frac = %v on a cache-off engine", f)
				}
			}
			if h := tr.Metrics["cluster.hedges_fired"].Value; h != 0 {
				t.Errorf("cluster.hedges_fired = %v with hedging off", h)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("Chrome trace: %d events, %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestContractLine drives the command line the driver uses and checks the
// last line of standard output.
func TestContractLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "suite-cold", "--seed", "3", "--seconds", "0.05", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[key]; !ok {
			t.Errorf("result line lacks %q", key)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4", len(got))
	}
	for _, want := range []string{"nproc=", "GOMAXPROCS=", "commit=", "seed=3", "scale="} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("run header lacks %q", want)
		}
	}
	if code := run([]string{"--workload", "no-such"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload accepted")
	}
}

// TestCompare checks the three verdicts on synthetic records.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates ...float64) string {
		path := filepath.Join(dir, name)
		for _, r := range rates {
			rec := record{Workload: "suite-cold", Correct: true, Metrics: map[string]metric{"loops_per_s": {r, "1/s"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.json", 1000, 1010, 990, 1005, 995)
	cases := []struct {
		name, verdict string
		code          int
		rates         []float64
	}{
		{"same.json", "ok", 0, []float64{1001, 1008, 992, 1004, 996}},
		{"slow.json", "regressed", 1, []float64{700, 705, 695, 702, 698}},
		{"noisy.json", "unresolved", 0, []float64{1400, 600, 1000, 1300, 700}},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := runCompare([]string{base, write(c.name, c.rates...)}, &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d and verdict %q:\n%s%s", c.name, code, c.code, c.verdict, stdout.String(), stderr.String())
		}
	}
}
