// Command clusched-serve runs the compilation service: an HTTP server
// that accepts loops in the ddg text format (wrapped in JSON), compiles
// them on the shared batch engine, and answers tickets asynchronously.
// With -cache-dir it keeps a persistent result cache, so a restarted
// server answers previously seen jobs without recompiling them.
//
// Usage:
//
//	clusched-serve -addr :8357 -cache-dir /var/cache/clusched
//	clusched-serve -workers 8 -queue 128 -timeout 5m
//	clusched-serve -pprof localhost:6060   # expose net/http/pprof
//	clusched-serve -trace-jobs -slow-compile 250ms   # trace every batch, log slow ones
//
// Endpoints:
//
//	POST   /compile            one job (JSON {loop, machine, options}); ?wait=1 blocks
//	POST   /batch              {jobs: [...], timeout_ms, trace} → {id}, or with Accept: application/x-ndjson its stream
//	GET    /batch/{id}/stream  NDJSON push: one outcome frame per job as it finishes
//	GET    /jobs/{id}          ticket status; outcomes once finished
//	GET    /jobs/{id}/trace    Chrome trace-event JSON for traced tickets
//	DELETE /jobs/{id}          cancel
//	GET    /strategies         registered scheduling strategies (options.strategy values)
//	GET    /stats              admission bound, in-flight, throughput, cache hit rate, per-strategy counts
//	GET    /metrics            the same accounting as Prometheus text exposition
//	GET    /healthz            200 with build info while serving, 503 while draining
//
// The server logs structured lines (log/slog text format) to stderr: one
// access-log line per HTTP request plus ticket lifecycle events. -quiet
// silences the access log, -v adds debug detail, and -slow-compile logs a
// warning (with a trace summary when the ticket is traced) for any single
// compilation over the threshold.
//
// Batch consumers should prefer the stream endpoint (clusched.NewRemote's
// Stream uses it, and resumes a cut stream over it): each verified result is
// pushed the moment it compiles. GET /jobs/{id} is left for status checks
// from the shell.
//
// SIGINT/SIGTERM triggers a graceful drain bounded by -drain-timeout.
//
// -pprof serves Go's net/http/pprof profiles (CPU, heap, goroutines, …) on
// a separate listener, so production performance questions — is the engine
// allocation-bound, where do compile cycles go — can be answered against
// the live server with `go tool pprof`. It is opt-in and should stay on a
// loopback or otherwise private address: the profile endpoints expose
// internals and are not meant for untrusted clients.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"clusched/internal/service"
)

func main() {
	addr := flag.String("addr", ":8357", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent result-cache directory (empty = in-memory only)")
	workers := flag.Int("workers", 0, "concurrent compilations per batch (default: GOMAXPROCS)")
	queue := flag.Int("queue", 64, "unfinished-ticket bound (admission control)")
	cacheSize := flag.Int("cache-size", 0, "in-memory result-cache entries (default: engine default)")
	timeout := flag.Duration("timeout", 0, "default per-ticket deadline (0 = none)")
	drain := flag.Duration("drain-timeout", time.Minute, "graceful-shutdown bound")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log (lifecycle and warning logs remain)")
	verbose := flag.Bool("v", false, "log debug detail (per-ticket submission events)")
	slowCompile := flag.Duration("slow-compile", 0, "warn when a single compilation exceeds this duration (0 = off)")
	traceJobs := flag.Bool("trace-jobs", false, "record an execution trace for every batch (retrievable from GET /jobs/{id}/trace)")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "clusched-serve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "clusched-serve: pprof: %v\n", err)
			}
		}()
	}

	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		Logger:         logger,
		AccessLog:      !*quiet,
		SlowCompile:    *slowCompile,
		TraceJobs:      *traceJobs,
	}
	var cache *service.DiskCache
	if *cacheDir != "" {
		var err error
		cache, err = service.OpenDiskCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cfg.Store = cache
		fmt.Fprintf(os.Stderr, "clusched-serve: persistent cache at %s (%d entries)\n", *cacheDir, cache.Len())
	}
	srv := service.New(cfg)

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "clusched-serve: listening on %s\n", ln.Addr())
		errc <- hs.Serve(ln)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "clusched-serve: %v, draining (up to %v)\n", sig, *drain)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "clusched-serve: forced shutdown: %v\n", err)
	}
	if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "clusched-serve: http shutdown: %v\n", err)
	}
	if cache != nil {
		if err := cache.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "clusched-serve: cache close: %v\n", err)
		}
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "clusched-serve: served %d tickets, %d jobs; cache hit rate %.1f%%\n",
		st.Completed, st.JobsCompiled, 100*st.Cache.HitRate)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "clusched-serve: %v\n", err)
	os.Exit(1)
}
