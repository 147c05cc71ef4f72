// Command corpusbench races every registered scheduling strategy over a
// distribution-generated loop corpus and validates each accepted schedule
// on the cycle-accurate simulator: store-trace equality against the
// reference execution, the completion-time model, and measured
// steady-state cycles/iteration equal to the claimed II. The whole batch
// runs through the driver at full concurrency, so the worker pool,
// speculative II search and semantic cache are exercised under
// validation.
//
// The exit status is the contract: 0 only when every accepted schedule is
// confirmed; any divergence prints a replayable record (corpus seed +
// index + strategy + options) and exits 1; a bad flag value exits 2. CI
// runs a bounded corpus on a fixed seed on four Table 1 machines.
// corpusbench counts, it does not time: throughput of the same
// compile-then-simulate path is the `corpus-sim` workload of
// `go run ./bench`.
//
// Usage:
//
//	corpusbench -n 10000 -seed 1 -json corpus.json
//	corpusbench -n 1000 -strategies paper,unified -clone-every 8
//	corpusbench -n 500 -size 8:24 -scc cyclic=1 -lat fdiv=1,fadd=1 -pressure 0.9
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clusched/internal/corpus"
	"clusched/internal/experiments"
	"clusched/internal/machine"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: the table goes to stdout,
// diagnostics to stderr, and the return value is the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("corpusbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 10000, "corpus size (loops per strategy)")
	seed := fs.Int64("seed", 1, "corpus master seed")
	config := fs.String("config", "4c2b2l64r", "machine configuration")
	strategies := fs.String("strategies", "", "comma-separated strategy list (default: the full registry)")
	sizeFlag := fs.String("size", "", "ops per loop as lo:hi")
	sccFlag := fs.String("scc", "", "shape mix, e.g. chain=1,tree=1,cyclic=2")
	latFlag := fs.String("lat", "", "op latency mix, e.g. fadd=3,fmul=2,iadd=4")
	memFlag := fs.Float64("mem", -1, "memory ordering edges per memory op")
	pressureFlag := fs.Float64("pressure", -1, "register pressure in [0,1]")
	iters := fs.Int("iters", 0, "simulated iterations per validation (0 = default)")
	workers := fs.Int("j", 0, "driver workers (0 = GOMAXPROCS)")
	speculate := fs.Int("speculate", 2, "speculative II lanes per compilation (<=1 disables)")
	cloneEvery := fs.Int("clone-every", 16, "follow every k-th loop with an isomorphic clone to exercise the semantic cache (0 disables)")
	jsonPath := fs.String("json", "", "also write the corpus section as JSON to this file")
	progress := fs.Bool("progress", false, "print progress to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintf(stderr, "corpusbench: %v\n", err)
		return 2
	}

	if *n <= 0 {
		return fatal(fmt.Errorf("-n must be positive, got %d", *n))
	}
	m, err := machine.Parse(*config)
	if err != nil {
		return fatal(fmt.Errorf("-config: %w", err))
	}
	spec := corpus.DefaultSpec()
	spec.N = *n
	spec.Seed = *seed
	if *sizeFlag != "" {
		if spec.Size, err = corpus.ParseSizeRange(*sizeFlag); err != nil {
			return fatal(err)
		}
	}
	if *sccFlag != "" {
		if spec.Shapes, err = corpus.ParseShapeMix(*sccFlag); err != nil {
			return fatal(err)
		}
	}
	if *latFlag != "" {
		if spec.Ops, err = corpus.ParseOpMix(*latFlag); err != nil {
			return fatal(err)
		}
	}
	if *memFlag >= 0 {
		spec.MemEdges = *memFlag
	}
	if *pressureFlag >= 0 {
		spec.Pressure = *pressureFlag
	}

	cfg := experiments.CorpusConfig{
		Spec:        spec,
		Machine:     m,
		Iters:       *iters,
		Workers:     *workers,
		Speculation: *speculate,
		CloneEvery:  *cloneEvery,
	}
	if *strategies != "" {
		for _, s := range strings.Split(*strategies, ",") {
			if s = strings.TrimSpace(s); s != "" {
				cfg.Strategies = append(cfg.Strategies, s)
			}
		}
	}
	if *progress {
		cfg.Progress = func(done, total int) {
			if done%1000 == 0 || done == total {
				fmt.Fprintf(stderr, "\rvalidated %d/%d", done, total)
				if done == total {
					fmt.Fprintln(stderr)
				}
			}
		}
	}

	sec, err := experiments.MeasureCorpus(cfg)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprint(stdout, experiments.CorpusReport(sec))

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(struct {
			Corpus *experiments.CorpusSection `json:"corpus"`
		}{sec}, "", "  ")
		if err != nil {
			return fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return fatal(err)
		}
	}

	divergent := 0
	for _, r := range sec.Rows {
		divergent += r.Divergent
	}
	if divergent > 0 {
		fmt.Fprintf(stderr, "corpusbench: %d divergent schedules — each record above replays via its (seed, index, strategy, opts)\n", divergent)
		return 1
	}
	return 0
}
