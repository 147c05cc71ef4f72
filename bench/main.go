// Command bench is the repository benchmark: five named workloads through
// the public Backend constructors, eight end-to-end metrics per workload
// with tracing off, and — in a separate traced run — an outside-in
// per-layer cost ledger. See bench/README.md for the workloads, the metric
// definitions, the bounds and how to read the trace.
//
//	go run ./bench --workload suite-cold --seed 1 --seconds 10 --trace 0
//	go run ./bench -workload cache-mix,fleet-mix -out bench-out/a.json
//	go run ./bench -workload suite-cold -trace bench-out/trace.json
//	go run ./bench -compare bench-out/a.json bench-out/b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything meant for people goes
// to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

// nominalSeconds is the timed-section length the workload sizes in
// workloads.go were chosen for (scale 1) on the 2-core reference box.
const nominalSeconds = 20

// config is one run's settings.
type config struct {
	seed  int64
	scale float64
	// minSetups and maxSetups bound how many times the workload is set up;
	// setup_s is the median. Each set-up regenerates the jobs, restarts the
	// backends and repeats the gated warm-up. Past the minimum, set-ups
	// repeat until setupBudget is spent: a 0.25 s set-up needs more
	// repetitions than a 1.5 s one for its median to sit still.
	minSetups, maxSetups int
}

const setupBudget = 3 * time.Second

// callers caps a workload's closed-loop callers at GOMAXPROCS: a caller
// without a CPU of its own measures the scheduler, not the system.
func (c config) callers(want int) int { return min(want, runtime.GOMAXPROCS(0)) }

// header identifies the machine and build a record was taken on.
type header struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	// SharedCPU marks a run whose concurrent parts (server and client,
	// two fleet nodes, two corpus-sim callers) had to share one CPU.
	SharedCPU bool `json:"shared_cpu,omitempty"`
}

func newHeader(cfg config) header {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return header{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: cfg.seed, Scale: cfg.scale, SharedCPU: runtime.GOMAXPROCS(0) < 2,
	}
}

// record is one workload's result: what -out appends (one JSON object per
// line) and -compare reads back.
type record struct {
	Header    header `json:"header"`
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Samples   int    `json:"latency_samples,omitempty"`
	Windows   int    `json:"windows,omitempty"`
	// WindowRates is the throughput of each timed window, in order: how
	// steady the run was.
	WindowRates []float64 `json:"window_loops_per_s,omitempty"`
	WindowP99s  []float64 `json:"window_p99_us,omitempty"`
	// Cache is what the engines behind the backend answered during the
	// timed section: exact hits, semantic hits, compilations.
	Cache    *cacheMix         `json:"cache,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Ledger   *ledger           `json:"ledger,omitempty"`
	Failures []failure         `json:"failures,omitempty"`
}

type cacheMix struct {
	Exact    uint64 `json:"exact_hits"`
	Semantic uint64 `json:"semantic_hits"`
	Misses   uint64 `json:"misses"`
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("workload", "", "comma-separated workloads to run (default: all five)")
	seed := fs.Int64("seed", 1, "seed of every generated input: corpus, Zipf draws, clone permutations, presentation order")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal timed-section length; sets -scale to seconds/20")
	scale := fs.Float64("scale", 0, "operation-count scale (1 = the sizes in bench/README.md); overrides -seconds")
	out := fs.String("out", "", "append one JSON record per workload to this file")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a path: traced run, Chrome trace written there")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	cfg := config{seed: *seed, scale: *scale, minSetups: 5, maxSetups: 9}
	if cfg.scale <= 0 {
		cfg.scale = *seconds / nominalSeconds
	}
	if cfg.scale <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds and -scale must be positive")
		return 2
	}
	var selected []int
	for _, name := range strings.Split(*names, ",") {
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		i := slices.IndexFunc(workloads, func(w workloadDef) bool { return w.name == name })
		if i < 0 {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
			return 2
		}
		selected = append(selected, i)
	}
	if len(selected) == 0 {
		for i := range workloads {
			selected = append(selected, i)
		}
	}

	hdr := newHeader(cfg)
	fmt.Fprintf(stderr, "bench: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d scale=%.4g shared_cpu=%v\n",
		hdr.NProc, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Commit, hdr.Seed, hdr.Scale, hdr.SharedCPU)
	code := 0
	for _, i := range selected {
		w := workloads[i]
		var rec record
		if *trace == "0" || *trace == "" {
			rec = runEndToEnd(w, cfg)
		} else {
			path := *trace
			if path == "1" {
				path = ""
			}
			var err error
			if rec, err = runTraced(w, cfg, path); err != nil {
				if rec.Ledger != nil {
					report(stderr, rec)
				}
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		rec.Header = hdr
		report(stderr, rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		line, _ := json.Marshal(result{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		fmt.Fprintf(stdout, "%s\n", line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

// runEndToEnd sets the workload up several times (reporting the median as
// setup_s), then measures it on the last instance with tracing off.
func runEndToEnd(w workloadDef, cfg config) record {
	var in *instance
	var setups []float64
	begun := time.Now()
	for k := 0; k < cfg.minSetups || (k < cfg.maxSetups && time.Since(begun) < setupBudget); k++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC() // the previous instance must not count as live heap
		}
		start := time.Now()
		in = w.setup(cfg)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer in.close()
	before := in.cacheCounts()
	e := in.measure()
	mix := in.cacheCounts().sub(before)
	failed := e.attempted - e.succeeded
	return record{
		Cache:    &cacheMix{mix.exact, mix.semantic, mix.miss},
		Workload: w.name, Correct: in.gate.failed == 0 && e.succeeded > 0,
		Attempted: e.attempted, Succeeded: e.succeeded, Failed: failed,
		Samples: e.samples, Windows: in.windows, WindowRates: e.rates, WindowP99s: e.p99s,
		Metrics: e.metrics(median(setups)), Failures: in.gate.failures,
	}
}

// report prints one record for people.
func report(w io.Writer, rec record) {
	fmt.Fprintf(w, "\n%s (traced=%v): attempted %d, succeeded %d, failed %d, correct %v\n",
		rec.Workload, rec.Traced, rec.Attempted, rec.Succeeded, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if c := rec.Cache; c != nil && *c != (cacheMix{}) {
		fmt.Fprintf(w, "  engines answered: %d exact hits, %d semantic hits, %d compilations\n", c.Exact, c.Semantic, c.Misses)
	}
	if rec.Ledger != nil {
		rec.Ledger.print(w)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  GATE MISS (workload=%s seed=%d window=%d index=%d): %s\n", f.Workload, f.Seed, f.Window, f.Index, f.Reason)
	}
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
