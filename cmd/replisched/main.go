// Command replisched compiles loops given in the text DDG format for a
// clustered VLIW machine and reports the modulo schedule, with and without
// instruction replication.
//
// Usage:
//
//	replisched -config 4c2b2l64r loop.ddg
//	loopgen -bench tomcatv -n 1 | replisched -config 4c1b2l64r -kernel -
//	replisched -remote http://localhost:8357 -config 4c2b2l64r loop.ddg
//	replisched -cluster http://h1:8357,http://h2:8357 loop.ddg   # shard across a fleet
//	replisched -strategy uas -config 4c2b2l64r loop.ddg   # rival scheduling strategy
//	replisched -trace trace.json loop.ddg   # record a Chrome trace of the compilation
//
// Flags select the machine (wcxbylzr or "unified"), the pipeline variant,
// and whether to print the kernel and the cluster assignment. Inputs with
// several loops are compiled concurrently on the batch engine; reports are
// printed in input order, loops that fail to schedule are reported inline,
// and the exit status is nonzero if any loop failed.
//
// Local and remote compilation share one code path: both are
// clusched.Backend implementations, and -remote merely swaps which backend
// the batch is collected from. On the remote backend, outcomes arrive over
// the service's NDJSON push stream and come back through the wire codec
// (re-verified schedules), so -kernel, -asm, -verify and -dot work
// identically. Outcomes served from a cache are marked "(cached)".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clusched"
	"clusched/internal/codegen"
	"clusched/internal/ddg"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/vliwsim"
)

func main() {
	cfg := flag.String("config", "4c2b2l64r", "machine configuration (wcxbylzr or \"unified\")")
	strategy := flag.String("strategy", "", "scheduling strategy: paper, unified, uas, moddist (default paper; replication flags apply to the paper chain only)")
	noRepl := flag.Bool("no-replication", false, "disable the replication pass")
	length := flag.Bool("length", false, "also run the §5.1 schedule-length replication extension")
	kernel := flag.Bool("kernel", false, "print the kernel of the modulo schedule")
	asm := flag.Bool("asm", false, "expand and print the full software pipeline (prolog/kernel/epilog with registers)")
	simIters := flag.Int("verify", 0, "execute the schedule for N iterations and verify against direct evaluation")
	dot := flag.Bool("dot", false, "print the partitioned DDG in Graphviz format")
	remote := flag.String("remote", "", "compile on a clusched-serve instance at this base URL instead of in-process")
	clusterNodes := flag.String("cluster", "", "comma-separated clusched-serve base URLs: fan the batch across the fleet (mutually exclusive with -remote)")
	traceOut := flag.String("trace", "", "record the compilation as Chrome trace-event JSON to this file (local runs only)")
	flag.Parse()

	m, err := machine.Parse(*cfg)
	if err != nil {
		fatal(err)
	}

	var r io.Reader
	switch {
	case flag.NArg() == 0, flag.Arg(0) == "-":
		r = os.Stdin
	default:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	loops, err := ddg.ParseText(r)
	if err != nil {
		fatal(err)
	}
	if len(loops) == 0 {
		fatal(fmt.Errorf("no loops in input"))
	}

	opts := pipeline.Options{Strategy: *strategy, Replicate: !*noRepl, LengthReplicate: *length, VerifySchedules: true}
	if opts.StrategyName() != "paper" {
		// The rival chains have no replication pass; their Validate would
		// (rightly) reject the flags.
		opts.Replicate, opts.LengthReplicate = false, false
	}
	jobs := make([]clusched.CompileJob, len(loops))
	for i, g := range loops {
		jobs[i] = clusched.CompileJob{Graph: g, Machine: m, Opts: opts}
	}
	// Where the compilation runs is a flag, not a code path: both backends
	// satisfy clusched.Backend, and Collect keeps the reports in input
	// order either way.
	ctx := context.Background()
	var trace *clusched.Trace
	var backend clusched.Backend
	switch {
	case *clusterNodes != "":
		if *remote != "" {
			fatal(fmt.Errorf("-cluster and -remote are mutually exclusive"))
		}
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "replisched: -trace is ignored with -cluster (the servers record traces; see GET /jobs/{id}/trace)")
		}
		cl := clusched.NewCluster(strings.Split(*clusterNodes, ","))
		defer cl.Close()
		backend = cl
	case *remote != "":
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "replisched: -trace is ignored with -remote (the server records traces; see GET /jobs/{id}/trace)")
		}
		client := clusched.NewRemote(*remote)
		if err := client.Health(ctx); err != nil {
			fatal(fmt.Errorf("service at %s unreachable: %w", *remote, err))
		}
		backend = client
	case *traceOut != "":
		trace = clusched.NewTrace()
		backend = clusched.NewLocal(clusched.WithTrace(trace))
	default:
		backend = clusched.NewLocal()
	}
	outcomes, batchErr := clusched.Collect(ctx, backend, jobs)
	if trace != nil {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = trace.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fatal(fmt.Errorf("-trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "replisched: wrote %s\n", *traceOut)
	}
	for i, out := range outcomes {
		g, res := jobs[i].Graph, out.Result
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "replisched: loop %s: %v\n", g.Name, out.Err)
			continue
		}
		cached := ""
		if out.CacheHit {
			cached = " (cached)"
		}
		strat := ""
		if opts.StrategyName() != "paper" {
			strat = " strategy=" + opts.StrategyName()
		}
		// res.Machine is the effective machine (the unified strategy
		// substitutes the monolithic equivalent).
		fmt.Printf("loop %s on %s: MII=%d II=%d length=%d stages=%d%s%s\n",
			g.Name, res.Machine, res.MII, res.II, res.Length, res.SC, strat, cached)
		fmt.Printf("  communications: %d implied by the partition, %d after replication\n",
			res.CommsBeforeReplication, res.Comms)
		if res.ReplicationSteps > 0 {
			total := 0
			for _, n := range res.Replicated {
				total += n
			}
			fmt.Printf("  replication: %d subgraphs, %d instances added (%d int, %d fp, %d mem), %d originals removed\n",
				res.ReplicationSteps, total,
				res.Replicated[ddg.ClassInt], res.Replicated[ddg.ClassFP], res.Replicated[ddg.ClassMem],
				res.Removed)
		}
		fmt.Printf("  register pressure per cluster: %v (limit %d)\n", res.Schedule.MaxLive, res.Machine.Regs)
		if *kernel {
			fmt.Println(res.Schedule.FormatKernel())
		}
		if *asm {
			p, err := codegen.Expand(res.Schedule)
			if err != nil {
				fatal(err)
			}
			fmt.Print(p.Format())
		}
		if *simIters > 0 {
			if err := vliwsim.Check(res.Schedule, *simIters); err != nil {
				fatal(err)
			}
			fmt.Printf("  verified: %d iterations match direct evaluation\n", *simIters)
		}
		if *dot {
			fmt.Println(ddg.DOT(g, res.Placement.Home))
		}
	}
	if batchErr != nil {
		fatal(batchErr)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "replisched: %v\n", err)
	os.Exit(1)
}
