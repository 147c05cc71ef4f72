// Command paperbench regenerates the paper's evaluation: every table and
// figure of "Instruction Replication for Clustered Microarchitectures"
// (MICRO-36, 2003) on the synthetic SPECfp95 suite.
//
// Usage:
//
//	paperbench              # run everything, print the full report
//	paperbench -fig 7       # run one experiment, print its block of the report
//	paperbench -o report.txt
//	paperbench -j 4 -progress   # 4 concurrent compilations, progress on stderr
//	paperbench -trace trace.json -fig 7   # record a Chrome trace of the run
//	paperbench -json figs.json  # machine-readable per-figure numbers + engine stats
//	paperbench -strategies paper,unified,uas,moddist   # head-to-head strategy comparison
//	paperbench -remote http://localhost:8357 -fig 7    # evaluation as service traffic
//	paperbench -cluster http://h1:8357,http://h2:8357  # evaluation sharded across a fleet
//
// The experiments are the rows of one table in internal/experiments
// (sections.go), in report order: Table 1, the figures, the §4 statistics
// and register sweep, the §5.2 and §6 ablations and the design ablations.
// `paperbench -h` lists their -fig names; -fig X prints exactly X's block of
// the full report.
//
// paperbench is the paper tool: it reports what the compiler produces,
// never how fast. Timing this repository is `go run ./bench` (see
// bench/README.md); validating schedules on the simulator is
// cmd/corpusbench.
//
// -remote swaps the in-process engine for the remote Backend (the same
// clusched.Backend seam every tool programs against): every suite
// compilation is submitted to the clusched-serve instance and streamed
// back, so the paper evaluation doubles as a realistic service workload.
// The remote cache lives server-side (see GET /stats).
//
// -strategies compiles the whole suite under each named scheduling
// strategy (see the root package's Strategies) on the headline
// configuration (-strategies-config, default 4c2b2l64r) and appends a
// per-suite IPC/speedup table to the report; with -json the same rows land
// in a "strategies" section. Speedups are relative to the first strategy
// listed.
//
// -trace records the whole run — every worker's job spans, cache lookups,
// passes and II attempts — into a Chrome trace-event JSON file, viewable
// in chrome://tracing or https://ui.perfetto.dev. It applies to local runs
// only; with -remote or -cluster, traces are recorded server-side (submit
// with trace and fetch GET /jobs/{id}/trace).
//
// -json writes the typed per-figure rows (the very values the text report
// is rendered from) and the engine's CacheStats as one JSON document. It
// composes with -fig: only the selected experiment's section is populated.
// Unroll and design have no section. Every section but "engine" is a
// pure function of the code (internal/experiments pins the figure sections
// against testdata/figures.golden.json); the engine counts move by a few
// jobs from run to run, because which of two isomorphic loops compiling
// concurrently fills the semantic tier first is a race.
//
// Every pipeline-level experiment drives the shared batch-compilation
// engine (internal/driver): -j bounds its worker pool and -progress
// subscribes to its completion callbacks. The design ablation (-fig
// design) is the one exception — it measures partitioner and scheduler
// internals directly, below the pipeline the engine runs.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"clusched"
	"clusched/internal/experiments"
	"clusched/internal/machine"
)

// jsonReport is the -json document: one optional section per experiment
// (absent sections were not run), the head-to-head strategy comparison
// (populated by -strategies) and the engine cache accounting.
type jsonReport struct {
	experiments.FigureSections
	Strategies []experiments.StrategyBenchRow `json:"strategies,omitempty"`
	Engine     clusched.CacheStats            `json:"engine"`
}

// preprocessArgs lets -json appear bare (no file name), meaning "write the
// JSON document to stdout": the flag package requires a value for string
// flags, so the bare form is rewritten to -json=- before parsing.
func preprocessArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-json" || a == "--json") &&
			(i+1 >= len(args) || (strings.HasPrefix(args[i+1], "-") && args[i+1] != "-")) {
			out = append(out, a+"=-")
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: it parses args, writes the
// report (or the JSON document) and every diagnostic to the given writers,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "experiment to run: "+strings.Join(experiments.Names(), ", ")+" (default: all)")
	out := fs.String("o", "", "write the report to a file instead of stdout")
	jsonOut := fs.String("json", "", "also write machine-readable per-figure numbers and engine CacheStats to this file (\"-\" or bare flag: stdout, suppressing the text report)")
	jobs := fs.Int("j", 0, "concurrent compilations (default: GOMAXPROCS)")
	progress := fs.Bool("progress", false, "report per-suite compilation progress on stderr")
	strategies := fs.String("strategies", "", "comma-separated scheduling strategies to compare head-to-head (e.g. paper,unified,uas,moddist)")
	strategiesConfig := fs.String("strategies-config", "4c2b2l64r", "machine configuration for the -strategies comparison")
	remote := fs.String("remote", "", "run every suite compilation on a clusched-serve instance at this base URL instead of in-process")
	clusterHosts := fs.String("cluster", "", "comma-separated clusched-serve base URLs: run the evaluation through the sharded cluster backend (mutually exclusive with -remote)")
	traceOut := fs.String("trace", "", "record the run as Chrome trace-event JSON to this file (local runs only)")
	if err := fs.Parse(preprocessArgs(args)); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// -trace, -progress and the engine's cache accounting describe the
	// in-process engine, built for a local run only; with -remote or
	// -cluster compilation (and its cache) is server-side.
	var (
		engine *clusched.Compiler
		trace  *clusched.Trace
	)
	if *clusterHosts != "" && *remote != "" {
		fmt.Fprintln(stderr, "paperbench: -cluster and -remote are mutually exclusive")
		return 2
	}
	if *clusterHosts != "" || *remote != "" {
		for _, f := range []struct {
			name            string
			set             bool
			remote, cluster string // why the flag does not apply
		}{
			{"-trace", *traceOut != "", "submit with trace and fetch GET /jobs/{id}/trace instead", "the servers record traces; see GET /jobs/{id}/trace"},
			{"-j", *jobs != 0, "the server's workers apply", "the servers' workers apply"},
			{"-progress", *progress, "compilation runs server-side", "compilation runs server-side"},
		} {
			switch {
			case !f.set:
			case *remote != "":
				fmt.Fprintf(stderr, "paperbench: %s is ignored with -remote (%s)\n", f.name, f.remote)
			default:
				fmt.Fprintf(stderr, "paperbench: %s is ignored with -cluster (%s)\n", f.name, f.cluster)
			}
		}
	}
	switch {
	case *clusterHosts != "":
		// Same Backend seam as -remote, but the batches fan out across the
		// fleet with cache-affine routing.
		cl := clusched.NewCluster(strings.Split(*clusterHosts, ","))
		defer cl.Close()
		experiments.UseBackend(cl)
	case *remote != "":
		// The experiments engine is a Backend seam: pointing it at the
		// remote client reruns the whole evaluation as service traffic.
		client := clusched.NewRemote(*remote, clusched.WithTimeout(0))
		if err := client.Health(context.Background()); err != nil {
			fmt.Fprintf(stderr, "paperbench: service at %s unreachable: %v\n", *remote, err)
			return 1
		}
		experiments.UseBackend(client)
	default:
		if *traceOut != "" {
			trace = clusched.NewTrace()
		}
		var progressFn clusched.Progress
		if *progress {
			progressFn = func(done, total int) {
				if done%100 == 0 || done == total {
					fmt.Fprintf(stderr, "\rcompiling %d/%d loops", done, total)
					if done == total {
						fmt.Fprintln(stderr)
					}
				}
			}
		}
		engine = clusched.NewLocal(clusched.WithWorkers(*jobs), clusched.WithTrace(trace),
			clusched.WithProgress(progressFn))
		experiments.UseBackend(engine)
	}

	sections, report, err := experiments.CollectFigures(*fig)
	if err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 2
	}

	// Head-to-head strategy comparison: append the table to the report and
	// carry the typed rows into the JSON document. The per-loop results are
	// memoized in the engine, so the rows and the rendered table share one
	// suite compilation per strategy.
	var strategyRows []experiments.StrategyBenchRow
	if *strategies != "" {
		var names []string
		for _, name := range strings.Split(*strategies, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		m, err := machine.Parse(*strategiesConfig)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -strategies-config: %v\n", err)
			return 2
		}
		strategyRows, err = experiments.StrategyComparison(names, m)
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -strategies: %v\n", err)
			return 2
		}
		report += "\n" + experiments.StrategyComparisonReport(strategyRows, names, m)
	}

	if *progress && engine != nil {
		st := engine.CacheStats()
		fmt.Fprintf(stderr, "engine cache: %d hits, %d misses, %d entries\n",
			st.Hits, st.Misses, st.Entries)
	}
	jsonToStdout := *jsonOut == "-"
	if *jsonOut != "" {
		// A remote engine's cache lives server-side: its section stays
		// zero.
		doc := jsonReport{FigureSections: sections, Strategies: strategyRows}
		if engine != nil {
			doc.Engine = engine.CacheStats()
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: %v\n", err)
			return 1
		}
		blob = append(blob, '\n')
		if jsonToStdout {
			stdout.Write(blob)
		} else {
			if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
				fmt.Fprintf(stderr, "paperbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stderr, "wrote %s\n", *jsonOut)
		}
	}
	if trace != nil {
		// Every experiment has compiled by now; snapshot the recording.
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "paperbench: -trace: %v\n", err)
			return 1
		}
		sum := trace.Summary()
		fmt.Fprintf(stderr, "wrote %s (%d spans on %d tracks over %v)\n",
			*traceOut, sum.Spans, sum.Tracks, sum.Wall.Round(time.Millisecond))
	}
	if *out == "" {
		if !jsonToStdout {
			fmt.Fprint(stdout, report)
		}
		return 0
	}
	if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
		fmt.Fprintf(stderr, "paperbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0
}
