package clusched

// The Backend conformance suite: one shared harness run against both
// implementations — the in-process Compiler and the remote Client over a
// live service. It pins the contract the interface promises:
//
//   - bit-identical Results for the same job list (II, schedule
//     fingerprint, cause attribution), wherever the compilation ran;
//   - Stream delivers the first outcomes while the batch is verifiably
//     still compiling (on the remote backend that means over the NDJSON
//     push endpoint — a poll-based transport would deadlock this test,
//     not just slow it down);
//   - cancelling mid-stream leaves a clean prefix: every job yields
//     exactly once, finished outcomes are identical to an uncancelled
//     run, everything else carries the cancellation.

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/service"
)

// gateStore is a Store whose Load blocks for selected loops until
// released: the deterministic way to hold one job of a batch open while
// the rest complete. It gates the local engine and the remote server
// through the same driver.Config.Store seam.
type gateStore struct {
	hold map[string]chan struct{}
}

func newGateStore(loops ...string) *gateStore {
	g := &gateStore{hold: map[string]chan struct{}{}}
	for _, l := range loops {
		g.hold[l] = make(chan struct{})
	}
	return g
}

func (g *gateStore) release(loop string) { close(g.hold[loop]) }

func (g *gateStore) Load(j CompileJob) (*Result, error, bool) {
	if ch, ok := g.hold[j.Graph.Name]; ok {
		<-ch
	}
	return nil, nil, false
}

func (g *gateStore) Save(CompileJob, *Result, error) {}

// backendCase builds one Backend implementation over a given engine
// config; the store gate and worker bound ride the config into both.
type backendCase struct {
	name string
	make func(t *testing.T, cfg driver.Config) Backend
}

func backendCases() []backendCase {
	return []backendCase{
		{name: "local", make: func(t *testing.T, cfg driver.Config) Backend {
			return driver.New(cfg)
		}},
		{name: "local-spec", make: func(t *testing.T, cfg driver.Config) Backend {
			// Speculation is an execution detail: the whole conformance
			// contract must hold unchanged with lanes racing inside every
			// compilation.
			cfg.Speculation = 4
			return driver.New(cfg)
		}},
		{name: "remote", make: func(t *testing.T, cfg driver.Config) Backend {
			t.Helper()
			s := service.New(service.Config{Workers: cfg.Workers, CacheSize: cfg.CacheSize, Store: cfg.Store})
			ts := httptest.NewServer(s.Handler())
			t.Cleanup(func() {
				ts.Close()
				s.Shutdown(context.Background())
			})
			return NewRemote(ts.URL)
		}},
		{name: "cluster", make: func(t *testing.T, cfg driver.Config) Backend {
			t.Helper()
			_, cl := newConformanceFleet(t, cfg, 3)
			return cl
		}},
	}
}

// conformanceNodeInFlight is the cluster case's per-node exchange window.
// It is deliberately small: the servers run with Runners = window + 2, so
// a run stalled at a job in a gated Store (plus its possible hedge
// duplicate) can never starve a node of runners, and the cancel test's
// "some jobs must still fail" invariant holds.
const conformanceNodeInFlight = 2

// newConformanceFleet starts n in-process service instances sharing the
// engine config (so store gates apply fleet-wide) and returns them with a
// Cluster backend over all of them.
func newConformanceFleet(t *testing.T, cfg driver.Config, n int) ([]*httptest.Server, *Cluster) {
	t.Helper()
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range n {
		s := service.New(service.Config{
			Workers:   cfg.Workers,
			CacheSize: cfg.CacheSize,
			Store:     cfg.Store,
			// Only the tests' Store gates need this: a run held open at a
			// gated job occupies a runner, and the runs behind it (its
			// hedge duplicate, a failed-over suffix) must not queue there.
			Runners: conformanceNodeInFlight + 2,
		})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		tss[i], urls[i] = ts, ts.URL
	}
	cl := NewCluster(urls,
		WithNodeInFlight(conformanceNodeInFlight),
		WithHealthInterval(50*time.Millisecond))
	t.Cleanup(cl.Close)
	return tss, cl
}

// conformanceJobs is the shared suite×machines job set both backends must
// agree on: real workload loops across clustered configurations, the
// paper pipeline with and without replication plus a rival strategy.
func conformanceJobs(t *testing.T) []CompileJob {
	t.Helper()
	machines := []Machine{
		MustParseMachine("2c1b2l64r"),
		MustParseMachine("4c2b2l64r"),
	}
	optsList := []Options{
		{},
		NewOptions(WithReplication(true)),
		NewOptions(WithStrategy("uas")),
	}
	var jobs []CompileJob
	for _, bench := range []string{"tomcatv", "swim"} {
		loops := BenchmarkLoops(bench)
		if len(loops) > 6 {
			loops = loops[:6]
		}
		for i, l := range loops {
			for _, m := range machines {
				jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: optsList[i%len(optsList)]})
			}
		}
	}
	if len(jobs) < 12 {
		t.Fatalf("conformance job set too small: %d", len(jobs))
	}
	return jobs
}

// resultFingerprint flattens everything observable about a Result —
// achieved II, cause tally, replication accounting, the full issue-time
// vector and the placement — so "identical" means identical, not just
// same-II.
func resultFingerprint(r *Result) string {
	if r == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "II=%d MII=%d len=%d sc=%d comms=%d/%d repl=%v rm=%d steps=%d causes=%v",
		r.II, r.MII, r.Length, r.SC, r.CommsBeforeReplication, r.Comms,
		r.Replicated, r.Removed, r.ReplicationSteps, r.IIIncreases)
	if r.Schedule != nil {
		fmt.Fprintf(&b, " t=%v", r.Schedule.Time)
	}
	if r.Placement != nil {
		fmt.Fprintf(&b, " home=%v repl=%v", r.Placement.Home, r.Placement.Replicas)
	}
	return b.String()
}

// referenceOutcomes compiles the job set serially on a plain local engine:
// the ground truth both backends must reproduce.
func referenceOutcomes(t *testing.T, jobs []CompileJob) []string {
	t.Helper()
	outs, err := Collect(context.Background(), NewLocal(WithWorkers(1)), jobs)
	if err != nil {
		t.Fatalf("reference compilation failed: %v", err)
	}
	fps := make([]string, len(outs))
	for i, o := range outs {
		fps[i] = resultFingerprint(o.Result)
	}
	return fps
}

// TestBackendConformanceIdenticalResults: the same job list must produce
// bit-identical Results through every Backend.
func TestBackendConformanceIdenticalResults(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			b := bc.make(t, driver.Config{})
			outs, err := Collect(context.Background(), b, jobs)
			if err != nil {
				t.Fatalf("collect: %v", err)
			}
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("job %d (%s): %v", i, jobs[i].Graph.Name, o.Err)
				}
				if got := resultFingerprint(o.Result); got != want[i] {
					t.Fatalf("job %d (%s on %s) diverges:\n  backend: %s\n  reference: %s",
						i, jobs[i].Graph.Name, jobs[i].Machine.Name, got, want[i])
				}
				// The result is for the caller's own graph, wherever it
				// was compiled: remote backends ask the server not to echo
				// the loop and adopt the one they submitted.
				if o.Result.Loop != jobs[i].Graph || o.Job.Graph != jobs[i].Graph {
					t.Fatalf("job %d (%s): the result's Loop is not the submitted graph", i, jobs[i].Graph.Name)
				}
			}
			// Unary and streaming halves agree, job for job: per-job
			// Compile of the same list, on a backend of its own so that
			// nothing is answered from what Stream left cached, gives what
			// Stream gave.
			unary := bc.make(t, driver.Config{})
			for i, j := range jobs {
				res, err := unary.Compile(context.Background(), j)
				if err != nil {
					t.Fatalf("unary Compile of job %d (%s): %v", i, j.Graph.Name, err)
				}
				if got, streamed := resultFingerprint(res), resultFingerprint(outs[i].Result); got != streamed {
					t.Fatalf("unary Compile of job %d (%s) diverges from the batch result:\n  %s\n  %s", i, j.Graph.Name, got, streamed)
				}
				if res.Loop != j.Graph {
					t.Fatalf("unary Compile of job %d: the result's Loop is not the submitted graph", i)
				}
			}
		})
	}
}

// uniqueGatedJob returns a job whose loop appears nowhere in jobs, so a
// gate keyed on its name holds exactly that one job.
func uniqueGatedJob(t *testing.T, jobs []CompileJob) CompileJob {
	t.Helper()
	inSet := map[string]bool{}
	for _, j := range jobs {
		inSet[j.Graph.Name] = true
	}
	for _, l := range BenchmarkLoops("hydro2d") {
		if !inSet[l.Graph.Name] {
			return CompileJob{Graph: l.Graph, Machine: MustParseMachine("4c2b2l64r")}
		}
	}
	t.Fatal("no unique loop available for the gate")
	return CompileJob{}
}

// TestBackendConformanceStreamingIncremental: with the last job gated
// shut, the stream must still deliver every other outcome — and therefore
// delivers them while the batch is verifiably unfinished. A transport
// that only reports completed batches (polling) cannot pass: the gate
// only opens after the early outcomes arrive.
func TestBackendConformanceStreamingIncremental(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			jobs := conformanceJobs(t)
			gated := uniqueGatedJob(t, jobs)
			jobs = append(jobs, gated)
			last := gated.Graph.Name
			gate := newGateStore(last)
			b := bc.make(t, driver.Config{Workers: 1, Store: gate})

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			delivered := 0
			released := false
			for i, out := range b.Stream(ctx, jobs) {
				if out.Err != nil {
					t.Fatalf("job %d: %v", i, out.Err)
				}
				delivered++
				if delivered == len(jobs)-1 && !released {
					// Every ungated job has streamed in while the batch is
					// provably still running (the gated job cannot have
					// finished). Open the gate to let it complete.
					released = true
					gate.release(last)
				}
			}
			if delivered != len(jobs) {
				t.Fatalf("stream delivered %d of %d outcomes", delivered, len(jobs))
			}
		})
	}
}

// TestBackendConformanceEarlyStop: breaking out of a Stream iteration
// abandons the remaining work cleanly — no panic from a backend calling
// yield after the consumer returned false, no goroutine wedge.
func TestBackendConformanceEarlyStop(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			jobs := conformanceJobs(t)
			b := bc.make(t, driver.Config{Workers: 1})
			n := 0
			for _, out := range b.Stream(context.Background(), jobs) {
				if out.Err != nil {
					t.Fatal(out.Err)
				}
				if n++; n == 2 {
					break
				}
			}
			if n != 2 {
				t.Fatalf("consumed %d outcomes, want to stop at 2", n)
			}
			// The backend is still usable afterwards.
			res, err := b.Compile(context.Background(), jobs[0])
			if err != nil || res == nil {
				t.Fatalf("backend unusable after early stop: %v", err)
			}
		})
	}
}

// TestBackendConformanceCancelCleanPrefix: cancelling mid-stream must
// yield every job exactly once, with finished outcomes identical to an
// uncancelled run and everything else carrying an error — never a torn or
// missing outcome. A gated job pinned at index 3 holds the batch open so
// the cancellation deterministically lands mid-stream.
func TestBackendConformanceCancelCleanPrefix(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			base := conformanceJobs(t)
			gated := uniqueGatedJob(t, base)
			// Three fast jobs, then the gate, then the rest: with one
			// worker, exactly three outcomes finish before the stream
			// stalls at the gate.
			jobs := append([]CompileJob{}, base[:3]...)
			jobs = append(jobs, gated)
			jobs = append(jobs, base[3:]...)
			want := referenceOutcomes(t, jobs[:3])
			gate := newGateStore(gated.Graph.Name)
			b := bc.make(t, driver.Config{Workers: 1, Store: gate})

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			seen := make([]bool, len(jobs))
			finished, failed := 0, 0
			for i, out := range b.Stream(ctx, jobs) {
				if seen[i] {
					t.Fatalf("job %d yielded twice", i)
				}
				seen[i] = true
				if out.Err != nil {
					failed++
					continue
				}
				finished++
				if i < 3 {
					if got := resultFingerprint(out.Result); got != want[i] {
						t.Fatalf("finished outcome %d diverges after cancel:\n  %s\n  %s", i, got, want[i])
					}
				}
				if finished == 3 {
					// The worker is stalled at the gate: cancel while the
					// batch is provably mid-flight, then open the gate so
					// everything winds down.
					cancel()
					gate.release(gated.Graph.Name)
				}
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("job %d never yielded", i)
				}
			}
			if finished < 3 {
				t.Fatalf("only %d outcomes finished before the cancel", finished)
			}
			if failed == 0 {
				t.Fatal("cancellation mid-stream produced no failed outcomes")
			}
		})
	}
}
