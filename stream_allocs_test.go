package clusched

import (
	"context"
	"net/http/httptest"
	"testing"

	"clusched/internal/service"
)

// TestStreamAllocs pins what moving a job costs: allocations per job of a
// program-sized Stream batch through NewRemote to an in-process server on
// loopback — client and server side, the compilation itself (cache off, so
// every job is one) and net/http's share included, the way the
// remote-stream workload of bench/ counts them. At the parent of the
// commit that added this test the same measurement read 146.7; it reads
// 23.6 now, run after run, of which the compile is 7, the server's parse 5
// and the client's decode 7 (docs/reports/pr28.md has the census).
func TestStreamAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	s := service.New(service.Config{Workers: 1, CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	backend := NewRemote(ts.URL, WithHTTPClient(ts.Client()))
	m := MustParseMachine("4c2b2l64r")
	var jobs []CompileJob
	for _, l := range BenchmarkLoops("hydro2d") {
		jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: NewOptions(WithReplication(true))})
	}
	if len(jobs) < 50 {
		t.Fatalf("hydro2d has only %d loops; the pin wants a program-sized batch", len(jobs))
	}
	ctx := context.Background()
	stream := func() {
		n := 0
		for _, out := range backend.Stream(ctx, jobs) {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			n++
		}
		if n != len(jobs) {
			t.Fatalf("stream delivered %d of %d jobs", n, len(jobs))
		}
	}
	stream() // connections, arenas and pools warm
	perJob := testing.AllocsPerRun(10, stream) / float64(len(jobs))
	t.Logf("%.1f allocations per streamed job (%d-job batches)", perJob, len(jobs))
	if perJob > 25.6 {
		t.Errorf("a streamed job costs %.1f allocations end to end, want <= 25.6", perJob)
	}
}

// TestClusterStreamAllocs pins what moving a job through the fleet costs:
// allocations per job of 64-job Stream batches through NewCluster over two
// in-process nodes on loopback — one exchange in flight per node, hedging
// and probes off, cache off so every job is a compilation — client, both
// servers and net/http's share included, the way the fleet-mix workload of
// bench/ counts them. A member's share of a batch travels as one ticket
// (one POST, one NDJSON stream), so a job costs what it costs on
// TestStreamAllocs' path plus its part of the per-run overhead. At the
// parent of the commit that added this test, where every job was its own
// POST /compile?wait=1, the same measurement read 234.6; it reads 30 to 40
// now, with how the two nodes' runs happen to be cut.
func TestClusterStreamAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	urls := make([]string, 2)
	for i := range urls {
		s := service.New(service.Config{Workers: 1, CacheSize: -1})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			s.Shutdown(context.Background())
		})
		urls[i] = ts.URL
	}
	backend := NewCluster(urls, WithNodeInFlight(1), WithHedge(-1), WithHealthInterval(-1))
	t.Cleanup(backend.Close)
	m := MustParseMachine("4c2b2l64r")
	var jobs []CompileJob
	for _, l := range BenchmarkLoops("hydro2d") {
		jobs = append(jobs, CompileJob{Graph: l.Graph, Machine: m, Opts: NewOptions(WithReplication(true))})
	}
	if len(jobs) < 64 {
		t.Fatalf("hydro2d has only %d loops; the pin wants 64-job batches", len(jobs))
	}
	jobs = jobs[:64]
	ctx := context.Background()
	stream := func() {
		n := 0
		for _, out := range backend.Stream(ctx, jobs) {
			if out.Err != nil {
				t.Fatal(out.Err)
			}
			n++
		}
		if n != len(jobs) {
			t.Fatalf("stream delivered %d of %d jobs", n, len(jobs))
		}
	}
	stream() // connections, arenas and pools warm
	perJob := testing.AllocsPerRun(10, stream) / float64(len(jobs))
	t.Logf("%.1f allocations per job through the fleet (%d-job batches)", perJob, len(jobs))
	if perJob > 43 {
		t.Errorf("a job costs %.1f allocations through the fleet, want <= 43", perJob)
	}
}
