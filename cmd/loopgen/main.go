// Command loopgen dumps loops of the synthetic SPECfp95 workload — or of a
// parameterized corpus distribution — in the text DDG format, for
// inspection or for feeding into replisched. It is a thin CLI over
// internal/corpus, which owns all loop generation.
//
// Usage:
//
//	loopgen                      # summary of the whole suite
//	loopgen -bench tomcatv       # every tomcatv loop as text DDGs
//	loopgen -bench swim -n 3     # only the first 3 loops
//	loopgen -stats               # per-benchmark structural statistics
//	loopgen -bench swim -permute # renamed/reordered isomorphic clones
//	loopgen -bench swim -dup 3   # each loop plus 3 distinct clones
//
//	loopgen -corpus -n 100 -seed 7 -size 8:48 \
//	    -scc chain=1,tree=1,cyclic=2 -lat fadd=3,fmul=2,iadd=4 \
//	    -mem 0.2 -pressure 0.6     # 100 distribution-generated loops
//
// -permute and -dup build the duplicated-shape corpus for exercising the
// engine's canonical (isomorphism-invariant) cache tier: every clone is
// the same abstract loop under fresh node names, a shuffled node order and
// a shuffled edge order, so exact fingerprints differ while canonical
// fingerprints match.
//
// -corpus streams loops from a corpus.Spec: -size bounds ops per loop,
// -scc weights the structural families, -lat weights the ALU op kinds
// inside the SCC families, -mem sets memory ordering edges per memory op,
// -pressure in [0,1] scales register pressure. The same flags with the
// same -seed always regenerate the same loops, in any order and count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"clusched/internal/corpus"
	"clusched/internal/ddg"
	"clusched/internal/experiments"
	"clusched/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole tool behind a testable seam: loops and tables go to
// stdout, diagnostics to stderr, and the return value is the exit code (2
// for a bad flag, 1 when writing the output fails).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loopgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "", "benchmark to dump (default: summary of all)")
	n := fs.Int("n", 0, "dump at most n loops (0 = all)")
	stats := fs.Bool("stats", false, "print structural statistics instead of DDGs")
	permute := fs.Bool("permute", false, "emit a renamed/reordered isomorphic clone of each loop instead of the original")
	dup := fs.Int("dup", 0, "emit each loop followed by this many distinct isomorphic clones")
	seed := fs.Int64("seed", 1, "base seed for the clone permutations (or the corpus master seed)")
	corpusMode := fs.Bool("corpus", false, "generate from a corpus distribution instead of the benchmark suite")
	specFlags := corpus.NewSpecFlags(fs, "corpus: ")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "loopgen: %v\n", err)
		return code
	}

	if *corpusMode {
		spec := corpus.DefaultSpec()
		if *n > 0 {
			spec.N = *n
		}
		spec.Seed = *seed
		if err := specFlags.Apply(&spec); err != nil {
			return fail(2, err)
		}
		for i, g := range spec.Loops() {
			fmt.Fprintf(stdout, "# %s: index=%d loop_seed=%d\n", g.Name, i, spec.LoopSeed(i))
			if err := ddg.WriteText(stdout, g); err != nil {
				return fail(1, err)
			}
		}
		return 0
	}

	if *stats || *bench == "" {
		t := experiments.NewTable("benchmark", "loops", "avg ops", "avg edges", "int %", "fp %", "mem %", "avg iters", "avg visits")
		for _, name := range workload.Benchmarks() {
			loops := workload.LoopsFor(name)
			var ops, edges, iters, visits float64
			var classes [ddg.NumClasses]float64
			for _, l := range loops {
				ops += float64(l.Graph.NumNodes())
				edges += float64(l.Graph.NumEdges())
				c := l.Graph.CountClass()
				for k, v := range c {
					classes[k] += float64(v)
				}
				iters += l.AvgIters
				visits += float64(l.Visits)
			}
			nl := float64(len(loops))
			t.AddRow(name, len(loops), ops/nl, edges/nl,
				100*classes[ddg.ClassInt]/ops, 100*classes[ddg.ClassFP]/ops, 100*classes[ddg.ClassMem]/ops,
				iters/nl, visits/nl)
		}
		fmt.Fprint(stdout, t.String())
		fmt.Fprintf(stdout, "total loops: %d\n", len(workload.SPECfp95()))
		return 0
	}

	loops := workload.LoopsFor(*bench)
	if loops == nil {
		return fail(2, fmt.Errorf("unknown benchmark %q", *bench))
	}
	emit := func(g *ddg.Graph, visits int64, iters float64) error {
		fmt.Fprintf(stdout, "# %s: visits=%d avg_iters=%.1f\n", g.Name, visits, iters)
		return ddg.WriteText(stdout, g)
	}
	for i, l := range loops {
		if *n > 0 && i >= *n {
			break
		}
		if !*permute {
			if err := emit(l.Graph, l.Visits, l.AvgIters); err != nil {
				return fail(1, err)
			}
		}
		clones := *dup
		if *permute && clones == 0 {
			clones = 1
		}
		for k := 0; k < clones; k++ {
			name := fmt.Sprintf("%s#p%d", l.Graph.Name, k+1)
			// Distinct seed per (loop, clone): same loop, different
			// presentation each time, reproducible across runs.
			clone := ddg.PermuteRandom(l.Graph, name, *seed+int64(i)*1000003+int64(k)*8191)
			if err := emit(clone, l.Visits, l.AvgIters); err != nil {
				return fail(1, err)
			}
		}
	}
	return 0
}
