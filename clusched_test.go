package clusched_test

import (
	"context"
	"strings"
	"testing"

	"clusched"
)

// buildSaxpy builds the doc-comment example loop through the public API.
func buildSaxpy(t *testing.T) *clusched.Graph {
	t.Helper()
	b := clusched.NewLoop("saxpy")
	idx := b.Node("idx", clusched.OpIAdd)
	b.Edge(idx, idx, 1)
	x := b.Node("x", clusched.OpLoad)
	y := b.Node("y", clusched.OpLoad)
	b.Edge(idx, x, 0)
	b.Edge(idx, y, 0)
	m := b.Node("m", clusched.OpFMul)
	a := b.Node("a", clusched.OpFAdd)
	s := b.Node("s", clusched.OpStore)
	b.Edge(x, m, 0)
	b.Edge(y, a, 0)
	b.Edge(m, a, 0)
	b.Edge(a, s, 0)
	b.Edge(idx, s, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPublicAPICompile(t *testing.T) {
	g := buildSaxpy(t)
	for _, cfg := range []string{"unified", "2c1b2l64r", "4c2b2l64r"} {
		m, err := clusched.ParseMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		base, err := clusched.Compile(g, m, clusched.Options{})
		if err != nil {
			t.Fatalf("%s baseline: %v", cfg, err)
		}
		repl, err := clusched.Compile(g, m, clusched.Options{Replicate: true})
		if err != nil {
			t.Fatalf("%s replication: %v", cfg, err)
		}
		if repl.II > base.II {
			t.Errorf("%s: replication worsened II", cfg)
		}
		if k := repl.Schedule.FormatKernel(); !strings.Contains(k, "slot") {
			t.Errorf("%s: kernel missing header:\n%s", cfg, k)
		}
	}
}

func TestPublicAPIParseLoops(t *testing.T) {
	text := "loop t\nnode a iadd\nnode b fmul\nedge a b\nend\n"
	gs, err := clusched.ParseLoops(strings.NewReader(text))
	if err != nil || len(gs) != 1 {
		t.Fatalf("ParseLoops: %v (%d loops)", err, len(gs))
	}
	if _, err := clusched.Compile(gs[0], clusched.MustParseMachine("2c1b2l64r"), clusched.Options{Replicate: true}); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIWorkload(t *testing.T) {
	if got := len(clusched.SPECfp95()); got != 678 {
		t.Errorf("suite has %d loops, want 678", got)
	}
	if got := len(clusched.Benchmarks()); got != 10 {
		t.Errorf("%d benchmarks, want 10", got)
	}
	if loops := clusched.BenchmarkLoops("mgrid"); len(loops) == 0 {
		t.Error("no mgrid loops")
	}
	if got := len(clusched.PaperMachines()); got != 6 {
		t.Errorf("%d paper machines, want 6", got)
	}
}

func TestPublicAPIOptionsVariants(t *testing.T) {
	g := buildSaxpy(t)
	m := clusched.MustParseMachine("4c1b2l64r")
	for _, opts := range []clusched.Options{
		{},
		{Replicate: true},
		{Replicate: true, LengthReplicate: true},
		{Replicate: true, ZeroBusLatency: true},
		{Replicate: true, UseMacroReplication: true},
	} {
		if _, err := clusched.Compile(g, m, opts); err != nil {
			t.Errorf("options %+v: %v", opts, err)
		}
	}
}

func TestPublicAPICollect(t *testing.T) {
	loops := clusched.BenchmarkLoops("tomcatv")
	machines := []clusched.Machine{
		clusched.MustParseMachine("2c1b2l64r"),
		clusched.MustParseMachine("4c2b2l64r"),
	}
	opts := clusched.Options{Replicate: true}
	var jobs []clusched.CompileJob
	for _, m := range machines {
		for _, l := range loops {
			jobs = append(jobs, clusched.CompileJob{Graph: l.Graph, Machine: m, Opts: opts})
		}
	}
	outs, err := clusched.Collect(context.Background(), clusched.NewLocal(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(loops)*len(machines) {
		t.Fatalf("%d outcomes, want %d", len(outs), len(loops)*len(machines))
	}
	// Machine-major ordering, as the jobs were listed: outs[j*len(loops)+i]
	// is loops[i] on machines[j], and matches a direct serial compile.
	for j, m := range machines {
		for i, l := range loops {
			r := outs[j*len(loops)+i].Result
			if r == nil {
				t.Fatalf("nil result for %s on %s", l.Graph.Name, m)
			}
			if r.Loop != l.Graph || r.Machine.Name != m.Name {
				t.Fatalf("slot (%d,%d) holds %s on %s, want %s on %s",
					j, i, r.Loop.Name, r.Machine.Name, l.Graph.Name, m.Name)
			}
			serial, err := clusched.Compile(l.Graph, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if r.II != serial.II || r.Comms != serial.Comms {
				t.Fatalf("%s on %s: batch II=%d, serial II=%d", l.Graph.Name, m, r.II, serial.II)
			}
		}
	}
}

func TestPublicAPICompilerCache(t *testing.T) {
	g := buildSaxpy(t)
	m := clusched.MustParseMachine("4c2b2l64r")
	comp := clusched.NewLocal(clusched.WithWorkers(2))
	jobs := []clusched.CompileJob{
		{Graph: g, Machine: m},
		{Graph: g, Machine: m, Opts: clusched.Options{Replicate: true}},
	}
	for run := 0; run < 2; run++ {
		if _, err := clusched.Collect(context.Background(), comp, jobs); err != nil {
			t.Fatal(err)
		}
	}
	st := comp.CacheStats()
	if st.Misses != 2 || st.Hits != 2 || st.Entries != 2 {
		t.Fatalf("cache stats %+v, want 2 misses / 2 hits / 2 entries", st)
	}
}

func TestCauseNames(t *testing.T) {
	if clusched.CauseBus.String() != "Bus" ||
		clusched.CauseRecurrence.String() != "Recurrences" ||
		clusched.CauseRegisters.String() != "Registers" {
		t.Error("cause names drifted from the paper's Fig. 1 legend")
	}
}
