package integration_test

// The smoke tests drive the shipped binaries as separate processes over
// loopback: clusched-serve as one node and as a three-node fleet,
// replisched as its -remote and -cluster client, loopgen for the loops.
// They assert what only real processes show: a persistent-cache hit after
// a restart, isomorphic clones served from disk by canonical remap, a
// fleet report byte-identical to a local one, and the NDJSON stream as a
// foreign reader sees it. Every node listens on port 0 and is restarted on
// the address it first bound, because a fleet's ring is keyed by node URL.
//
//	go test -run Smoke ./internal/integration

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// bins holds clusched-serve, replisched and loopgen, built once per test
// binary on first use and removed by TestMain.
var bins struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// bin returns the path of one of the three binaries, building all of them
// the first time any is asked for.
func bin(t *testing.T, name string) string {
	t.Helper()
	bins.once.Do(func() {
		if bins.dir, bins.err = os.MkdirTemp("", "clusched-smoke-"); bins.err != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", bins.dir+string(filepath.Separator),
			"clusched/cmd/clusched-serve", "clusched/cmd/replisched", "clusched/cmd/loopgen").CombinedOutput()
		if err != nil {
			bins.err = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if bins.err != nil {
		t.Fatal(bins.err)
	}
	return filepath.Join(bins.dir, name)
}

// run executes a binary to completion and returns its stdout; a non-zero
// exit fails the test.
func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin(t, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// loops writes the concatenated loopgen output for each argument list to a
// file and returns its path and contents.
func loops(t *testing.T, file string, argLists ...[]string) (string, string) {
	t.Helper()
	var text strings.Builder
	for _, args := range argLists {
		text.WriteString(run(t, "loopgen", args...))
	}
	path := filepath.Join(t.TempDir(), file)
	if err := os.WriteFile(path, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, text.String()
}

// loopCount and cachedCount are the report's `grep -c '^loop '` and
// `grep -c '(cached)'`.
func loopCount(report string) int {
	n := 0
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "loop ") {
			n++
		}
	}
	return n
}

func cachedCount(report string) int {
	n := 0
	for _, line := range strings.Split(report, "\n") {
		if strings.Contains(line, "(cached)") {
			n++
		}
	}
	return n
}

// uncached drops the cache markers, the only difference a warm server may
// make to a report.
func uncached(report string) string { return strings.ReplaceAll(report, " (cached)", "") }

// A node is one clusched-serve process with its own disk cache.
type node struct {
	t        *testing.T
	addr     string // the host:port it bound, kept across restarts
	cacheDir string
	cmd      *exec.Cmd
	drained  chan struct{} // closed once stderr reaches EOF
	mu       sync.Mutex
	log      strings.Builder
}

// startNode starts clusched-serve on addr ("127.0.0.1:0" for a fresh
// port), reads the address it bound from its "listening on" line, and
// waits until /healthz answers.
func startNode(t *testing.T, addr, cacheDir string) *node {
	t.Helper()
	n := &node{t: t, cacheDir: cacheDir}
	n.start(addr)
	t.Cleanup(func() {
		if n.cmd.ProcessState == nil {
			n.cmd.Process.Kill()
			n.wait()
		}
		if t.Failed() {
			n.mu.Lock()
			t.Logf("clusched-serve %s stderr:\n%s", n.addr, n.log.String())
			n.mu.Unlock()
		}
	})
	return n
}

func (n *node) start(addr string) {
	t := n.t
	t.Helper()
	n.cmd = exec.Command(bin(t, "clusched-serve"), "-addr", addr, "-cache-dir", n.cacheDir)
	stderr, err := n.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	n.drained = make(chan struct{})
	bound := make(chan string, 1)
	go func() {
		defer close(n.drained)
		r := bufio.NewReader(stderr)
		for {
			line, err := r.ReadString('\n')
			n.mu.Lock()
			n.log.WriteString(line)
			n.mu.Unlock()
			if a, ok := strings.CutPrefix(strings.TrimSpace(line), "clusched-serve: listening on "); ok {
				select {
				case bound <- a:
				default:
				}
			}
			if err != nil {
				return
			}
		}
	}()
	select {
	case n.addr = <-bound:
	case <-n.drained:
		n.wait()
		t.Fatalf("clusched-serve -addr %s exited before listening:\n%s", addr, n.log.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("clusched-serve -addr %s never logged its address", addr)
	}
	// The CI shell's poll: 40 tries, a quarter second apart.
	for i := 0; ; i++ {
		resp, err := http.Get(n.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if i == 40 {
			t.Fatalf("node %s never became healthy", n.addr)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func (n *node) url() string { return "http://" + n.addr }

// wait reaps the process once its stderr is drained.
func (n *node) wait() error {
	<-n.drained
	return n.cmd.Wait()
}

// stop drains the node gracefully (SIGTERM) and requires exit status 0.
func (n *node) stop() {
	t := n.t
	t.Helper()
	if err := n.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := n.wait(); err != nil {
		t.Fatalf("node %s after SIGTERM: %v", n.addr, err)
	}
}

// restart stops the node and starts it again on the same address and
// cache directory: memory cold, disk warm.
func (n *node) restart() {
	n.t.Helper()
	n.stop()
	n.start(n.addr)
}

// getJSON decodes a 200 answer of GET url into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// cacheStats and strategyStats are the /stats counters the smoke tests
// read, under their wire names.
type cacheStats struct {
	Hits              uint64 `json:"hits"`
	Misses            uint64 `json:"misses"`
	StoreHits         uint64 `json:"store_hits"`
	SemanticHits      uint64 `json:"semantic_hits"`
	SemanticStoreHits uint64 `json:"semantic_store_hits"`
}

type strategyStats struct {
	JobsSubmitted     uint64 `json:"jobs_submitted"`
	CacheHits         uint64 `json:"cache_hits"`
	CacheMisses       uint64 `json:"cache_misses"`
	StoreHits         uint64 `json:"store_hits"`
	SemanticHits      uint64 `json:"semantic_hits"`
	SemanticStoreHits uint64 `json:"semantic_store_hits"`
}

type serviceStats struct {
	Submitted    uint64                   `json:"submitted"`
	JobsCompiled uint64                   `json:"jobs_compiled"`
	MaxInFlight  int                      `json:"max_inflight"`
	Cache        cacheStats               `json:"cache"`
	Strategies   map[string]strategyStats `json:"strategies"`
}

func (n *node) stats() serviceStats {
	n.t.Helper()
	var st serviceStats
	getJSON(n.t, n.url()+"/stats", &st)
	return st
}

// frame is one NDJSON stream frame: hello, outcome or done.
type frame struct {
	Type    string `json:"type"`
	Schema  int    `json:"schema"`
	ID      string `json:"id"`
	Total   int    `json:"total"`
	Index   int    `json:"index"`
	State   string `json:"state"`
	Outcome *struct {
		Result *struct {
			Loop string `json:"loop"`
		} `json:"result"`
		Error    string `json:"error"`
		CacheHit bool   `json:"cache_hit"`
	} `json:"outcome"`
}

// streamCheck submits every loop of text as one batch (paper strategy,
// replication on) and reads its NDJSON stream three times: as the answer
// of POST /batch?loop=0 itself, the one exchange this repository's clients
// make, then over GET /batch/{id}/stream of the ticket its hello names, as
// an older client does, plain (every result carries its loop text) and
// with ?loop=0 (none does). Cold, no outcome may be a cache hit; warm,
// every one must be.
//
// The batch must stay under the disk cache's 256-entry write-behind queue,
// so that no warm assertion can be failed by a designed-in overflow drop.
// That outcomes are pushed as they finish is TestBackendConformance's
// business: a wall-clock probe here would race the engine.
func streamCheck(t *testing.T, base, text string, warm bool) {
	t.Helper()
	type job struct {
		Schema  int               `json:"schema"`
		Loop    string            `json:"loop"`
		Machine map[string]string `json:"machine"`
		Options map[string]bool   `json:"options"`
	}
	var jobs []job
	for _, part := range strings.SplitAfter(text, "end\n") {
		if strings.TrimSpace(part) != "" {
			jobs = append(jobs, job{2, part, map[string]string{"config": "4c2b2l64r"}, map[string]bool{"replicate": true}})
		}
	}
	if len(jobs) < 2 || len(jobs) > 250 {
		t.Fatalf("stream batch of %d loops: want a real batch under the disk cache's write queue", len(jobs))
	}
	body, err := json.Marshal(map[string]any{"jobs": jobs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/batch?loop=0", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if kind := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || kind != "application/x-ndjson" {
		resp.Body.Close()
		t.Fatalf("POST /batch?loop=0 answered %s %s, not its stream", resp.Status, kind)
	}
	ticket := consumeStream(t, "POST /batch?loop=0", resp.Body, len(jobs), 0, warm)
	for _, pass := range []struct {
		query     string
		wantLoops int
	}{{"", len(jobs)}, {"?loop=0", 0}} {
		resp, err := http.Get(base + "/batch/" + ticket + "/stream" + pass.query)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			t.Fatalf("GET stream%s: %s", pass.query, resp.Status)
		}
		consumeStream(t, "stream"+pass.query, resp.Body, len(jobs), pass.wantLoops, warm)
	}
}

// consumeStream reads one stream to its done frame, checks it, and returns
// the ticket its hello names. Every frame must be exactly one
// newline-terminated line holding one JSON value.
func consumeStream(t *testing.T, what string, body io.ReadCloser, total, wantLoops int, warm bool) string {
	t.Helper()
	defer body.Close()
	r := bufio.NewReader(body)
	next := func() frame {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("%s: frame without its newline (%v): %q", what, err, line)
		}
		var f frame
		if err := json.Unmarshal(line, &f); err != nil {
			t.Fatalf("%s: frame %q: %v", what, line, err)
		}
		return f
	}
	hello := next()
	if hello.Type != "hello" || hello.Schema != 3 || hello.Total != total {
		t.Fatalf("%s: first frame %+v, want hello of schema 3 for %d jobs", what, hello, total)
	}
	seen := map[int]bool{}
	hits, echoed := 0, 0
	f := next()
	for ; f.Type != "done"; f = next() {
		if f.Type != "outcome" {
			t.Fatalf("%s: unexpected frame %+v", what, f)
		}
		if seen[f.Index] {
			t.Fatalf("%s: job %d streamed twice", what, f.Index)
		}
		seen[f.Index] = true
		if f.Outcome == nil || f.Outcome.Result == nil || f.Outcome.Error != "" {
			t.Fatalf("%s: job %d: outcome without a result: %+v", what, f.Index, f.Outcome)
		}
		if f.Outcome.Result.Loop != "" {
			echoed++
		}
		if f.Outcome.CacheHit {
			hits++
		}
	}
	if f.State != "done" {
		t.Errorf("%s: done frame in state %q, want done", what, f.State)
	}
	if len(seen) != total {
		t.Errorf("%s: %d outcomes, want %d", what, len(seen), total)
	}
	if echoed != wantLoops {
		t.Errorf("%s: %d results carry their loop, want %d", what, echoed, wantLoops)
	}
	wantHits := 0
	if warm {
		wantHits = total
	}
	if hits != wantHits {
		t.Errorf("%s (warm=%v): %d cache hits, want %d", what, warm, hits, wantHits)
	}
	return hello.ID
}

// metricsLine is one labeled sample of the two ledger series.
var metricsLine = regexp.MustCompile(`^(clusched_(?:cache_lookups|jobs)_total)\{\w+="([^"]+)"\} (\d+)$`)

// TestSmokeService is one clusched-serve's life: a cold remote run and
// stream, a restart on the same cache directory answered from disk, a
// rival strategy kept apart, the /metrics and /stats views of one ledger,
// a traced ticket, and a second restart that serves isomorphic clones by
// canonical remap.
func TestSmokeService(t *testing.T) {
	loopsFile, loopsText := loops(t, "loops.ddg", []string{"-bench", "tomcatv", "-n", "2"})
	_, streamText := loops(t, "stream.ddg",
		// Isomorph-free: applu, turb3d and mgrid hold pairs the semantic
		// tier would answer as hits inside the cold batch.
		[]string{"-bench", "swim"}, []string{"-bench", "su2cor"}, []string{"-bench", "fpppp"})
	srv := startNode(t, "127.0.0.1:0", filepath.Join(t.TempDir(), "cache"))
	remote := func(args ...string) string {
		return run(t, "replisched", append([]string{"-remote", srv.url(), "-config", "4c2b2l64r"}, args...)...)
	}

	if n := cachedCount(remote(loopsFile)); n != 0 {
		t.Fatalf("cold run: %d loops unexpectedly cached", n)
	}
	streamCheck(t, srv.url(), streamText, false)

	srv.restart()
	warm := remote(loopsFile)
	if n, all := cachedCount(warm), loopCount(warm); n == 0 || n != all {
		t.Fatalf("warm restart: %d of %d loops cached, want all from the persistent cache", n, all)
	}

	// A rival strategy round-trips and is counted apart from the paper
	// traffic: its keys must not hit the paper entries.
	uas := remote("-strategy", "uas", loopsFile)
	if !strings.Contains(uas, "strategy=uas") {
		t.Errorf("uas run does not name its strategy:\n%s", uas)
	}
	if cachedCount(uas) != 0 {
		t.Errorf("uas job hit the paper cache entry (keys not strategy-aware):\n%s", uas)
	}

	streamCheck(t, srv.url(), streamText, true)

	var strategies struct {
		Strategies []struct {
			Name string `json:"name"`
		} `json:"strategies"`
	}
	getJSON(t, srv.url()+"/strategies", &strategies)
	st := srv.stats()

	// The scrape surface a Prometheus would see: the 0.0.4 content type
	// and the core series of the engine and the service.
	resp, err := http.Get(srv.url() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s %v", resp.Status, err)
	}
	if kind := resp.Header.Get("Content-Type"); !strings.Contains(kind, "version=0.0.4") {
		t.Errorf("/metrics Content-Type %q, want the 0.0.4 text format", kind)
	}
	for _, series := range []string{
		"clusched_compile_seconds_bucket",
		"clusched_ii_attempts_count",
		`clusched_cache_lookups_total{result=`,
		`clusched_jobs_total{strategy="paper"}`,
		`clusched_jobs_total{strategy="uas"}`,
		`clusched_tickets_total{event="completed"}`,
		"clusched_service_jobs_completed_total",
		"clusched_http_requests_total",
		"clusched_queue_length",
		"clusched_uptime_seconds",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("/metrics: missing series %s", series)
		}
	}

	// One ledger, two views: every lookup label equals its /stats cache
	// counter, each strategy's jobs_total is the sum of its five /stats
	// counters, and, no job here being cancelled, the two sums agree.
	series := map[string]map[string]uint64{}
	for _, line := range strings.Split(string(metrics), "\n") {
		if m := metricsLine.FindStringSubmatch(line); m != nil {
			v, err := strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				t.Fatalf("/metrics line %q: %v", line, err)
			}
			if series[m[1]] == nil {
				series[m[1]] = map[string]uint64{}
			}
			series[m[1]][m[2]] = v
		}
	}
	lookups, jobs := series["clusched_cache_lookups_total"], series["clusched_jobs_total"]
	fields := map[string]uint64{
		"hit": st.Cache.Hits, "miss": st.Cache.Misses, "store_hit": st.Cache.StoreHits,
		"semantic_hit": st.Cache.SemanticHits, "semantic_store_hit": st.Cache.SemanticStoreHits,
	}
	for label := range lookups {
		if _, ok := fields[label]; !ok {
			t.Errorf("/metrics: unknown lookup label %q", label)
		}
	}
	for label, want := range fields {
		if lookups[label] != want {
			t.Errorf("lookups{result=%q} = %d, /stats says %d", label, lookups[label], want)
		}
	}
	for name, s := range st.Strategies {
		if sum := s.CacheHits + s.CacheMisses + s.StoreHits + s.SemanticHits + s.SemanticStoreHits; jobs[name] != sum {
			t.Errorf("jobs_total{strategy=%q} = %d, /stats counters sum to %d", name, jobs[name], sum)
		}
	}
	var sumLookups, sumJobs uint64
	for _, v := range lookups {
		sumLookups += v
	}
	for _, v := range jobs {
		sumJobs += v
	}
	if sumLookups != sumJobs || sumLookups == 0 {
		t.Errorf("lookups sum to %d, jobs to %d: want equal and > 0", sumLookups, sumJobs)
	}

	// A traced batch's recording is fetchable by ticket as Chrome
	// trace-event JSON with service-level spans.
	tracedSpans(t, srv.url())

	// The restarted paper batch came entirely from the disk store, while
	// the first-ever uas jobs were real compilations.
	if st.Cache.StoreHits == 0 {
		t.Errorf("/stats store_hits = 0 after a warm restart")
	}
	var names []string
	for _, s := range strategies.Strategies {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	if want := []string{"moddist", "paper", "uas", "unified"}; !slices.Equal(names, want) {
		t.Errorf("/strategies = %v, want %v", names, want)
	}
	if p := st.Strategies["paper"]; p.JobsSubmitted == 0 || p.StoreHits == 0 || p.CacheMisses != 0 {
		t.Errorf("paper after restart: %+v, want submitted and store hits > 0, no misses", p)
	}
	if u := st.Strategies["uas"]; u.JobsSubmitted == 0 || u.CacheMisses == 0 {
		t.Errorf("uas: %+v, want submitted and misses > 0", u)
	}

	// Renamed, reordered isomorphic clones share no exact fingerprint with
	// anything compiled, so serving them cached after one more restart
	// proves the disk store answered by canonical identity: decode (and
	// prove), then remap through the isomorphism.
	clonesFile, clonesText := loops(t, "clones.ddg", []string{"-bench", "tomcatv", "-n", "2", "-permute"})
	if clonesText == loopsText {
		t.Fatal("permuted corpus identical to the original; test defeated")
	}
	srv.restart()
	clones := remote(clonesFile)
	if n, all := cachedCount(clones), loopCount(clones); n != all {
		t.Errorf("%d of %d isomorphic clones cached: the canonical store tier missed", n, all)
	}
	st = srv.stats()
	if st.Cache.Misses != 0 || st.Cache.SemanticStoreHits != 2 || st.Strategies["paper"].SemanticStoreHits != 2 {
		t.Errorf("clones: cache %+v, paper %+v; want 0 misses and 2 semantic store hits",
			st.Cache, st.Strategies["paper"])
	}
	srv.stop()
}

// tracedSpans submits a one-job traced batch, waits for its ticket, and
// requires its /jobs/{id}/trace to hold service, job, attempt and pass
// events.
func tracedSpans(t *testing.T, base string) {
	t.Helper()
	job := map[string]any{
		"loop":    "loop l\nnode x load\nnode m fmul\nnode s store\nedge x m\nedge m s\nend\n",
		"machine": map[string]string{"config": "4c2b2l64r"},
		"options": map[string]any{},
	}
	body, err := json.Marshal(map[string]any{"jobs": []any{job}, "trace": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ticket struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ticket)
	resp.Body.Close()
	if err != nil || resp.StatusCode/100 != 2 || ticket.ID == "" {
		t.Fatalf("POST /batch (traced): %s %v", resp.Status, err)
	}
	for i := 0; ; i++ {
		var status struct {
			State string `json:"state"`
		}
		getJSON(t, base+"/jobs/"+ticket.ID, &status)
		if status.State == "done" {
			break
		}
		if i == 40 {
			t.Fatalf("traced ticket %s still %q", ticket.ID, status.State)
		}
		time.Sleep(250 * time.Millisecond)
	}
	var trace struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
		} `json:"traceEvents"`
	}
	getJSON(t, base+"/jobs/"+ticket.ID+"/trace", &trace)
	cats := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"service", "job", "attempt", "pass"} {
		if !cats[want] {
			t.Errorf("trace of ticket %s: no %q events (categories %v)", ticket.ID, want, cats)
		}
	}
}

// fleet is three nodes, each with its own disk cache: cache-affine routing
// is the point of a fleet.
type fleet []*node

func startFleet(t *testing.T) fleet {
	t.Helper()
	f := make(fleet, 3)
	for i := range f {
		f[i] = startNode(t, "127.0.0.1:0", filepath.Join(t.TempDir(), fmt.Sprintf("cache-%d", i+1)))
	}
	return f
}

func (f fleet) urls() string {
	urls := make([]string, len(f))
	for i, n := range f {
		urls[i] = n.url()
	}
	return strings.Join(urls, ",")
}

// TestSmokeFleet shards a cold batch across three nodes and compares the
// report with a local compilation, checks that each node answered its
// share over at most two tickets, then restarts the fleet and submits
// isomorphic clones, which the ring must route to the nodes holding their
// originals.
func TestSmokeFleet(t *testing.T) {
	f := startFleet(t)
	loopsFile, loopsText := loops(t, "loops.ddg", []string{"-bench", "tomcatv"})

	// Sharding may never change a schedule.
	local := uncached(run(t, "replisched", "-config", "4c2b2l64r", loopsFile))
	cold := run(t, "replisched", "-cluster", f.urls(), "-config", "4c2b2l64r", loopsFile)
	if got := uncached(cold); got != local {
		t.Fatalf("fleet report differs from local:\n--- local\n%s--- fleet\n%s", local, got)
	}

	// A member's queue is at most 1.25x the even share + 1, so it leaves as
	// one or two runs whatever the ring did with these loops; one POST per
	// job would read tickets == jobs.
	var jobs, tickets uint64
	for _, n := range f {
		st := n.stats()
		jobs += st.JobsCompiled
		tickets += st.Submitted
		if st.Submitted > 2 || (st.JobsCompiled >= 2 && st.Submitted >= st.JobsCompiled) {
			t.Errorf("node %s: %d tickets for %d jobs", n.addr, st.Submitted, st.JobsCompiled)
		}
	}
	if want := uint64(loopCount(cold)); jobs != want {
		t.Errorf("the fleet compiled %d jobs for a %d-loop corpus", jobs, want)
	}
	if tickets*2 > jobs {
		t.Errorf("%d tickets for %d jobs: the fleet is not sub-batching", tickets, jobs)
	}

	// Memory cold, disk warm. The ring hashes the canonical fingerprint,
	// which clones share with their originals, so every clone lands on
	// the node holding its original's result and is answered by that
	// node's canonical disk tier.
	for _, n := range f {
		n.restart()
	}
	clonesFile, clonesText := loops(t, "clones.ddg", []string{"-bench", "tomcatv", "-permute"})
	if clonesText == loopsText {
		t.Fatal("permuted corpus identical to the original; test defeated")
	}
	clones := run(t, "replisched", "-cluster", f.urls(), "-config", "4c2b2l64r", clonesFile)
	want := loopCount(clones)
	if n := cachedCount(clones); n != want {
		t.Errorf("%d of %d clones cached: some were recompiled instead of remapped", n, want)
	}
	var semantic uint64
	budgets := map[int]bool{}
	for _, n := range f {
		st := n.stats()
		semantic += st.Cache.SemanticStoreHits
		budgets[st.MaxInFlight] = true
	}
	if semantic != uint64(want) {
		t.Errorf("semantic_store_hits across shards: %d, want %d", semantic, want)
	}
	// Every shard reports its compile budget, max(workers, GOMAXPROCS):
	// the same on identical nodes, and never 0.
	if len(budgets) != 1 || budgets[0] {
		t.Errorf("max_inflight across shards: %v, want one value > 0", budgets)
	}
	for _, n := range f {
		n.stop()
	}
}
