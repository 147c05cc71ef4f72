// Fleet: shard one compilation batch across three servers with
// clusched.NewCluster, then prove the routing is cache-affine — isomorphic
// clones of a loop land on the same node as their original and are served
// by that node's semantic cache tier instead of recompiling.
//
// The three "servers" here are in-process httptest instances over the same
// service the clusched-serve binary runs, so the example is self-contained
// (go run ./examples/fleet). A real deployment starts real processes:
//
//	clusched-serve -addr :8357 -max-inflight 8 &
//	clusched-serve -addr :8358 -max-inflight 8 &
//	clusched-serve -addr :8359 -max-inflight 8 &
//
// and hands their URLs to clusched.NewCluster — everything below is
// unchanged. Nothing is sized against the cluster: a node's share of a
// batch arrives as one ticket and the node's worker pool serves it.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"clusched"
	"clusched/internal/ddg"
	"clusched/internal/service"
)

func main() {
	ctx := context.Background()

	// Three nodes, defaults throughout; each keeps its own result cache,
	// which is exactly why routing affinity matters.
	var urls []string
	for range 3 {
		s := service.New(service.Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	cl := clusched.NewCluster(urls, clusched.WithNodeInFlight(4))
	defer cl.Close()

	// Round 1: a fresh corpus — every tomcatv loop, replicated pipeline.
	m := clusched.MustParseMachine("4c2b2l64r")
	repl := clusched.NewOptions(clusched.WithReplication(true))
	loops := clusched.BenchmarkLoops("tomcatv")
	jobs := make([]clusched.CompileJob, len(loops))
	for i, l := range loops {
		jobs[i] = clusched.CompileJob{Graph: l.Graph, Machine: m, Opts: repl}
	}
	if _, err := clusched.Collect(ctx, cl, jobs); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("round 1: %d fresh loops sharded across %d nodes\n", len(jobs), len(urls))

	// Round 2: an isomorphic clone of every loop — renamed, reordered, the
	// same dependence structure. Consistent hashing keys on the canonical
	// fingerprint, which clones share, so each clone is routed to the node
	// that already holds its original's result and is answered by that
	// node's semantic cache tier (a schedule remap, not a recompilation).
	clones := make([]clusched.CompileJob, len(loops))
	for i, l := range loops {
		g := ddg.PermuteRandom(l.Graph, fmt.Sprintf("%s-clone", l.Graph.Name), int64(i)+1)
		clones[i] = clusched.CompileJob{Graph: g, Machine: m, Opts: repl}
	}
	if _, err := clusched.Collect(ctx, cl, clones); err != nil {
		log.Fatal(err)
	}

	// The fleet rollup: per-node distribution plus the semantic-hit sum
	// that the affinity argument stands on.
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	fs := cl.FleetStats(sctx)
	fmt.Printf("round 2: %d isomorphic clones, %d served by semantic cache tiers\n\n",
		len(clones), fs.SemanticHits+fs.SemanticStoreHits)
	fmt.Printf("%-28s %8s %8s %8s %9s\n", "node", "jobs", "steals", "compiled", "sem.hits")
	for _, ns := range fs.Nodes {
		compiled, sem := uint64(0), uint64(0)
		if ns.Service != nil {
			compiled = ns.Service.JobsCompiled
			sem = ns.Service.Cache.SemanticHits + ns.Service.Cache.SemanticStoreHits
		}
		fmt.Printf("%-28s %8d %8d %8d %9d\n", ns.Name, ns.Jobs, ns.Steals, compiled, sem)
	}
	if got, want := fs.SemanticHits+fs.SemanticStoreHits, uint64(len(clones)); got < want {
		log.Fatalf("affinity broken: only %d of %d clones hit a semantic tier", got, want)
	}
	fmt.Println("\nevery clone was answered by the node that compiled its original")
}
