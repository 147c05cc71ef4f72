package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
	"clusched/internal/workload"
)

// fakeService is the probe and statistics half of a fake Node: always
// healthy, with nothing to report.
type fakeService struct{}

func (fakeService) Health(context.Context) error { return nil }

func (fakeService) Stats(context.Context) (wire.ServiceStats, error) {
	return wire.ServiceStats{}, nil
}

// fakeNode is an in-process Node that answers a run job by job, with
// scriptable failure modes: a transport error, a permanent StatusError, or
// blocking until the dispatch context is cancelled (a wedged server, from
// the cluster's point of view).
type fakeNode struct {
	fakeService
	mu    sync.Mutex
	calls int
	fail  error
	block bool
}

func (f *fakeNode) set(fail error, block bool) {
	f.mu.Lock()
	f.fail, f.block = fail, block
	f.mu.Unlock()
}

func (f *fakeNode) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// Stream hands the run over one job at a time, in order, stopping at the
// first transport error.
func (f *fakeNode) Stream(ctx context.Context, jobs []driver.Job, deliver func(int, driver.Outcome) bool) error {
	for k, j := range jobs {
		out, err := f.do(ctx, j)
		if err != nil {
			return err
		}
		if !deliver(k, out) {
			return nil
		}
	}
	return nil
}

func (f *fakeNode) do(ctx context.Context, j driver.Job) (driver.Outcome, error) {
	f.mu.Lock()
	f.calls++
	fail, block := f.fail, f.block
	f.mu.Unlock()
	if block {
		<-ctx.Done()
		return driver.Outcome{}, ctx.Err()
	}
	if fail != nil {
		return driver.Outcome{}, fail
	}
	return driver.Outcome{Job: j, Result: &pipeline.Result{II: 1}}, nil
}

// fakeHealthNode adds a scriptable probe answer.
type fakeHealthNode struct {
	fakeNode
	hmu     sync.Mutex
	healthy bool
}

func (f *fakeHealthNode) setHealthy(ok bool) {
	f.hmu.Lock()
	f.healthy = ok
	f.hmu.Unlock()
}

func (f *fakeHealthNode) Health(context.Context) error {
	f.hmu.Lock()
	defer f.hmu.Unlock()
	if !f.healthy {
		return errors.New("probe: node down")
	}
	return nil
}

// fakeStatsNode answers /stats with a scripted reply.
type fakeStatsNode struct {
	fakeNode
	st  wire.ServiceStats
	err error
}

func (f *fakeStatsNode) Stats(context.Context) (wire.ServiceStats, error) { return f.st, f.err }

// TestFleetStatsRollsUpEveryNode: every member's Stats is read, a reply
// lands in its NodeStats and the fleet sums, and a failed read is recorded
// against its node without touching the sums.
func TestFleetStatsRollsUpEveryNode(t *testing.T) {
	var answering, failing fakeStatsNode
	answering.st.Queued, answering.st.JobsCompiled = 2, 40
	answering.st.Cache.SemanticHits, answering.st.Cache.SemanticStoreHits = 3, 1
	failing.err = errors.New("fake: stats unreachable")
	c, err := New(Config{Members: []Member{
		{Name: fleetName(0), Node: &answering},
		{Name: fleetName(1), Node: &failing},
		{Name: fleetName(2), Node: &fakeNode{}},
	}, Hedge: -1, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fs := c.FleetStats(context.Background())
	if fs.Queued != 2 || fs.JobsCompiled != 40 || fs.SemanticHits != 3 || fs.SemanticStoreHits != 1 {
		t.Errorf("fleet sums = queued %d, compiled %d, semantic %d/%d; want 2, 40, 3/1",
			fs.Queued, fs.JobsCompiled, fs.SemanticHits, fs.SemanticStoreHits)
	}
	if n := fs.Nodes[0]; n.Service == nil || n.Service.JobsCompiled != 40 || n.ServiceError != "" {
		t.Errorf("answering node: service %+v, error %q", n.Service, n.ServiceError)
	}
	if n := fs.Nodes[1]; n.Service != nil || n.ServiceError != failing.err.Error() {
		t.Errorf("failing node: service %+v, error %q; want nil and %q", n.Service, n.ServiceError, failing.err)
	}
	if n := fs.Nodes[2]; n.Service == nil || n.ServiceError != "" {
		t.Errorf("idle node: service %+v, error %q; want its zero stats", n.Service, n.ServiceError)
	}
}

// newFakeFleet builds a probe-less, hedge-less cluster over n fakes.
func newFakeFleet(t *testing.T, n int) (*Cluster, []*fakeNode) {
	t.Helper()
	fakes := make([]*fakeNode, n)
	members := make([]Member, n)
	for i := range n {
		fakes[i] = &fakeNode{}
		members[i] = Member{Name: fleetName(i), Node: fakes[i]}
	}
	c, err := New(Config{Members: members, Hedge: -1, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fakes
}

func fleetName(i int) string { return "node-" + string(rune('a'+i)) }

func testJobs(t *testing.T, n int) []driver.Job {
	t.Helper()
	loops := workload.LoopsFor("tomcatv")
	if len(loops) < n {
		t.Fatalf("tomcatv has only %d loops, need %d", len(loops), n)
	}
	m := machine.MustParse("4c2b2l64r")
	jobs := make([]driver.Job, n)
	for i := range n {
		jobs[i] = driver.Job{Graph: loops[i].Graph, Machine: m}
	}
	return jobs
}

// dispatchOne serves one job through the run dispatch from the given home —
// a run of one, exactly what Compile sends.
func dispatchOne(ctx context.Context, c *Cluster, home *member, j driver.Job) driver.Outcome {
	var out driver.Outcome
	l := newLedger([]driver.Job{j}, func(_ int, o driver.Outcome) bool {
		out = o
		return true
	})
	c.dispatch(ctx, l, home, []int{0})
	return out
}

// TestRouteAffinity pins the two halves of the affinity argument: the route
// of a job is a pure function of the member names (stable across cluster
// instances, hence across client processes and restarts), and isomorphic
// clones — same canonical fingerprint, different node names and order —
// land on the same member as their original.
func TestRouteAffinity(t *testing.T) {
	c1, _ := newFakeFleet(t, 5)
	c2, _ := newFakeFleet(t, 5) // same names, distinct instance
	for i, j := range testJobs(t, 8) {
		h1, h2 := c1.routeOne(j), c2.routeOne(j)
		if h1.name != h2.name {
			t.Fatalf("job %d routes to %s on one cluster, %s on its twin", i, h1.name, h2.name)
		}
		cj := j
		cj.Graph = ddg.PermuteRandom(j.Graph, j.Graph.Name+"-perm", int64(i)+1)
		if cj.Graph.CanonicalFingerprint() != j.Graph.CanonicalFingerprint() {
			t.Fatalf("job %d: permuted clone changed the canonical fingerprint", i)
		}
		if hc := c1.routeOne(cj); hc.name != h1.name {
			t.Fatalf("job %d: clone routes to %s, original to %s", i, hc.name, h1.name)
		}
	}
}

// TestRouteBoundedLoad: batch routing must respect the bounded-load factor —
// no member gets more than 1.25× the even share (+1), however skewed the
// fingerprints hash.
func TestRouteBoundedLoad(t *testing.T) {
	c, _ := newFakeFleet(t, 3)
	jobs := testJobs(t, 12)
	// Skew: every job is the same loop, so every job hashes to one member.
	for i := range jobs {
		jobs[i].Graph = jobs[0].Graph
	}
	assign, _ := c.route(jobs)
	bound := int(routeLoadFactor*float64(len(jobs))/3) + 1
	total := 0
	for m, q := range assign {
		if len(q) > bound {
			t.Fatalf("member %s got %d jobs, bound is %d", m.name, len(q), bound)
		}
		total += len(q)
	}
	if total != len(jobs) {
		t.Fatalf("routed %d of %d jobs", total, len(jobs))
	}
}

// TestDispatchFailover: a transport failure on the home node must eject it
// and complete the job on another member — transparently, no outcome error.
func TestDispatchFailover(t *testing.T) {
	c, fakes := newFakeFleet(t, 2)
	j := testJobs(t, 1)[0]
	home := c.routeOne(j)
	homeFake := fakes[memberIndex(t, c, home)]
	homeFake.set(errors.New("connection refused"), false)

	out := dispatchOne(context.Background(), c, home, j)
	if out.Err != nil {
		t.Fatalf("dispatch failed despite a healthy peer: %v", out.Err)
	}
	if out.Result == nil {
		t.Fatal("dispatch returned no result")
	}
	if home.healthy() {
		t.Fatal("home member still healthy after a transport failure")
	}
	// Recovery without probes: the home answers again while the peer goes
	// dark, so failover falls back to the ejected home — whose successful
	// exchange readmits it.
	homeFake.set(nil, false)
	fakes[1-memberIndex(t, c, home)].set(errors.New("connection refused"), false)
	if out := dispatchOne(context.Background(), c, home, j); out.Err != nil {
		t.Fatalf("dispatch after recovery: %v", out.Err)
	}
	if !home.healthy() {
		t.Fatal("home member not readmitted by a successful dispatch")
	}
	if home.ejections.Value() != 1 {
		t.Fatalf("home ejected %d times, want 1", home.ejections.Value())
	}
	assertFleetAgreesWithRegistry(t, c)
}

// TestPermanentErrorIsFinal: a 4xx StatusError is a deterministic answer —
// every node would reproduce it — so it must surface as the outcome error
// without burning a failover attempt or ejecting the node.
func TestPermanentErrorIsFinal(t *testing.T) {
	c, fakes := newFakeFleet(t, 2)
	j := testJobs(t, 1)[0]
	home := c.routeOne(j)
	hi := memberIndex(t, c, home)
	fakes[hi].set(&StatusError{Code: 422, Msg: "unschedulable"}, false)

	out := dispatchOne(context.Background(), c, home, j)
	if out.Err == nil {
		t.Fatal("permanent error did not surface")
	}
	if home.healthy() == false {
		t.Fatal("permanent error ejected the member")
	}
	if got := fakes[1-hi].callCount(); got != 0 {
		t.Fatalf("permanent error was retried on the peer (%d calls)", got)
	}
}

// TestDispatchExhaustion: when every member fails transport, the outcome
// carries the first transport error, wrapped.
func TestDispatchExhaustion(t *testing.T) {
	c, fakes := newFakeFleet(t, 3)
	for _, f := range fakes {
		f.set(errors.New("network is down"), false)
	}
	j := testJobs(t, 1)[0]
	out := dispatchOne(context.Background(), c, c.routeOne(j), j)
	if out.Err == nil {
		t.Fatal("dispatch succeeded with every node failing")
	}
	for _, f := range fakes {
		if f.callCount() == 0 {
			t.Fatal("a member was never tried before giving up")
		}
	}
}

// TestRetryableClassification pins the transport-vs-permanent split that
// failover keys on.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{errors.New("dial tcp: connection refused"), true},
		{&StatusError{Code: 500, Msg: "boom"}, true},
		{&StatusError{Code: 503, Msg: "draining"}, true},
		{&StatusError{Code: 429, Msg: "queue full"}, true},
		{&StatusError{Code: 408, Msg: "timeout"}, true},
		{&StatusError{Code: 400, Msg: "bad request"}, false},
		{&StatusError{Code: 404, Msg: "no such strategy"}, false},
		{&StatusError{Code: 422, Msg: "unschedulable"}, false},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestHedgeDuplicatesSlowPrimary: with a fixed hedge delay and a wedged
// primary, the duplicate must answer and be attributed as a hedge win
// against the primary.
func TestHedgeDuplicatesSlowPrimary(t *testing.T) {
	fakes := []*fakeNode{{}, {}}
	members := []Member{
		{Name: fleetName(0), Node: fakes[0]},
		{Name: fleetName(1), Node: fakes[1]},
	}
	c, err := New(Config{Members: members, Hedge: 2 * time.Millisecond, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	j := testJobs(t, 1)[0]
	home := c.routeOne(j)
	fakes[memberIndex(t, c, home)].set(nil, true) // wedge the primary

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out := dispatchOne(ctx, c, home, j)
	if out.Err != nil {
		t.Fatalf("hedged dispatch failed: %v", out.Err)
	}
	if home.hedgesFired.Value() == 0 {
		t.Fatal("no hedge fired against the wedged primary")
	}
	if home.hedgesWon.Value() == 0 {
		t.Fatal("the duplicate's answer was not counted as a hedge win")
	}
	assertFleetAgreesWithRegistry(t, c)
}

// TestNextClaimsTheHeadOfItsOwnQueue pins the claiming policy in runs: a
// member claims from the head of its own queue at most the even share, and
// a member whose queue is empty claims nothing, however long another is.
func TestNextClaimsTheHeadOfItsOwnQueue(t *testing.T) {
	a, idle := &member{name: "a"}, &member{name: "idle"}
	b := &batchState{queues: map[*member][]int{a: {0, 1, 2, 3, 4, 5, 6}, idle: nil}, share: 4}
	for k, c := range []struct {
		m    *member
		want []int
	}{
		{idle, nil},
		{a, []int{0, 1, 2, 3}},
		{idle, nil},
		{a, []int{4, 5, 6}},
		{a, nil},
	} {
		if run := b.next(c.m); !slices.Equal(run, c.want) {
			t.Fatalf("claim %d: member %s claimed %v, want %v", k, c.m.name, run, c.want)
		}
	}
}

// TestRouteBoundIsAtMostTwiceTheEvenShare pins the arithmetic that lets a
// member's workers claim its whole queue in two runs: for every batch of up
// to 512 jobs over up to 8 healthy members, no member's routed queue is
// longer than twice the even share — not even when every job hashes to one
// member and bounded-load routing fills queue after queue to its bound.
func TestRouteBoundIsAtMostTwiceTheEvenShare(t *testing.T) {
	const maxJobs, maxMembers = 512, 8
	c, _ := newStreamFleet(t, maxMembers, -1, 1)
	one := testJobs(t, 1)[0]
	jobs := make([]driver.Job, maxJobs)
	for i := range jobs {
		jobs[i] = one
	}
	for h := 1; h <= maxMembers; h++ {
		for i, m := range c.members {
			m.up.Store(i < h)
		}
		for n := 1; n <= maxJobs; n++ {
			queues, healthy := c.route(jobs[:n])
			if healthy != h {
				t.Fatalf("n=%d: route counted %d healthy members, want %d", n, healthy, h)
			}
			share := (n + h - 1) / h
			total := 0
			for m, q := range queues {
				total += len(q)
				if !m.healthy() {
					t.Fatalf("n=%d h=%d: route queued %d jobs on unhealthy %s", n, h, len(q), m.name)
				}
				if len(q) > 2*share {
					t.Fatalf("n=%d h=%d: %s holds %d jobs, more than twice the even share %d", n, h, m.name, len(q), share)
				}
			}
			if total != n {
				t.Fatalf("n=%d h=%d: route queued %d jobs", n, h, total)
			}
		}
	}
}

// TestStreamYieldsEveryJobExactlyOnce runs the fleet Stream over fakes: all
// jobs complete, tagged with their indices, no duplicates.
func TestStreamYieldsEveryJobExactlyOnce(t *testing.T) {
	c, _ := newFakeFleet(t, 3)
	jobs := testJobs(t, 10)
	seen := make([]bool, len(jobs))
	for i, out := range c.Stream(context.Background(), jobs) {
		if seen[i] {
			t.Fatalf("job %d yielded twice", i)
		}
		seen[i] = true
		if out.Err != nil {
			t.Fatalf("job %d: %v", i, out.Err)
		}
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("job %d never yielded", i)
		}
	}
}

// TestProbeEjectsAndReadmits drives the health loop against a scriptable
// probe: a failing member leaves the ring, a recovering one returns.
func TestProbeEjectsAndReadmits(t *testing.T) {
	sick := &fakeHealthNode{healthy: true}
	c, err := New(Config{
		Members: []Member{
			{Name: fleetName(0), Node: sick},
			{Name: fleetName(1), Node: &fakeNode{}},
		},
		Hedge:          -1,
		HealthInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sick.setHealthy(false)
	waitFor(t, "ejection by probe", func() bool { return !c.members[0].healthy() })
	sick.setHealthy(true)
	waitFor(t, "readmission by probe", func() bool { return c.members[0].healthy() })
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func memberIndex(t *testing.T, c *Cluster, m *member) int {
	t.Helper()
	for i, mm := range c.members {
		if mm == m {
			return i
		}
	}
	t.Fatal("member not in cluster")
	return -1
}

// --- the run path under faults ------------------------------------------

// frameAction scripts what a fakeStreamNode does when frame k of an
// exchange is due.
type frameAction int

const (
	frameDeliver  frameAction = iota
	frameCut                  // the stream dies before this frame
	frameStall                // the node goes silent before this frame, until its ticket is cancelled
	frameUnproven             // this outcome fails its proof: not delivered, the exchange ends in error
)

// fakeStreamNode is an in-process Node that takes each run as one exchange,
// scriptable per exchange and per frame. Outcomes carry the node's id as
// their II, so a test can tell who answered a job.
type fakeStreamNode struct {
	fakeService
	id int

	mu        sync.Mutex
	refuse    error                             // refuses the submit of every exchange
	frame     func(exchange, k int) frameAction // nil delivers everything
	runs      [][]string                        // the loops of every exchange received, in order
	cancelled int                               // exchanges that ended with their ticket cancelled
	finished  int                               // exchanges that have returned
}

var (
	errFakeCut      = errors.New("fake: stream cut mid-batch")
	errFakeUnproven = errors.New("fake: outcome fails its proof")
)

func (f *fakeStreamNode) Stream(ctx context.Context, jobs []driver.Job, deliver func(int, driver.Outcome) bool) (err error) {
	f.mu.Lock()
	exchange := len(f.runs)
	f.runs = append(f.runs, loopNames(jobs))
	refuse, frame := f.refuse, f.frame
	f.mu.Unlock()
	cancelled := false
	defer func() {
		f.mu.Lock()
		f.finished++
		if cancelled {
			f.cancelled++
		}
		f.mu.Unlock()
	}()
	if refuse != nil {
		return refuse
	}
	var unproven error
	for k, j := range jobs {
		action := frameDeliver
		if frame != nil {
			action = frame(exchange, k)
		}
		switch action {
		case frameCut:
			return errFakeCut
		case frameStall:
			<-ctx.Done()
		case frameUnproven:
			unproven = errFakeUnproven
			continue
		}
		if ctx.Err() != nil {
			cancelled = true
			return ctx.Err()
		}
		if !deliver(k, driver.Outcome{Job: j, Result: &pipeline.Result{II: f.id}}) {
			cancelled = true
			return nil
		}
	}
	return unproven
}

func (f *fakeStreamNode) snapshot() (runs [][]string, cancelled, finished int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.runs), f.cancelled, f.finished
}

// newStreamFleet builds a probe-less cluster over n streaming fakes with
// ids 1..n.
func newStreamFleet(t *testing.T, n int, hedge time.Duration, inFlight int) (*Cluster, []*fakeStreamNode) {
	t.Helper()
	fakes := make([]*fakeStreamNode, n)
	members := make([]Member, n)
	for i := range n {
		fakes[i] = &fakeStreamNode{id: i + 1}
		members[i] = Member{Name: fleetName(i), Node: fakes[i]}
	}
	c, err := New(Config{Members: members, Hedge: hedge, HealthInterval: -1, NodeInFlight: inFlight})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, fakes
}

// collected records what a ledger emitted: the answering node of every job
// (by the II the fake stamped) and its error, each job at most once.
type collected struct {
	mu   sync.Mutex
	node []int
	err  []error
	seen []bool
}

// dispatchRun serves jobs as one run from the given home member, the way a
// Stream worker would, and returns what the ledger emitted.
func dispatchRun(t *testing.T, ctx context.Context, c *Cluster, home *member, jobs []driver.Job) *collected {
	t.Helper()
	got := &collected{node: make([]int, len(jobs)), err: make([]error, len(jobs)), seen: make([]bool, len(jobs))}
	l := newLedger(jobs, func(i int, out driver.Outcome) bool {
		got.mu.Lock()
		defer got.mu.Unlock()
		if got.seen[i] {
			t.Errorf("job %d emitted twice", i)
		}
		got.seen[i] = true
		got.err[i] = out.Err
		if out.Result != nil {
			got.node[i] = out.Result.II
		}
		return true
	})
	run := make([]int, len(jobs))
	for i := range run {
		run[i] = i
	}
	c.dispatch(ctx, l, home, run)
	for i, ok := range got.seen {
		if !ok {
			t.Errorf("job %d never emitted", i)
		}
	}
	return got
}

func loopNames(jobs []driver.Job) []string {
	names := make([]string, len(jobs))
	for i, j := range jobs {
		names[i] = j.Graph.Name
	}
	return names
}

// assertFleetAgreesWithRegistry checks the two views of a member's event
// counts against each other: FleetStats and the registry's exposition must
// read the same number for every node and family.
func assertFleetAgreesWithRegistry(t *testing.T, c *Cluster) {
	t.Helper()
	var sb strings.Builder
	if err := c.Registry().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, ns := range c.FleetStats(context.Background()).Nodes {
		for family, want := range map[string]uint64{
			"jobs": ns.Jobs, "hedges_fired": ns.HedgesFired,
			"hedges_won": ns.HedgesWon, "ejections": ns.Ejections,
		} {
			line := fmt.Sprintf("clusched_cluster_%s_total{node=%q} %d\n", family, ns.Name, want)
			if !strings.Contains(sb.String(), line) {
				t.Errorf("FleetStats reads %s", line)
			}
		}
	}
	if t.Failed() {
		t.Logf("registry:\n%s", sb.String())
	}
}

// TestRunCutFailsOverTheSuffixExactlyOnce: a stream cut after k outcomes
// ejects the member and sends exactly the undelivered suffix, as one run, to
// another member — the delivered prefix is never repeated, and the rerouted
// jobs are counted as failovers of the failed node.
func TestRunCutFailsOverTheSuffixExactlyOnce(t *testing.T) {
	const n, k = 9, 4
	c, fakes := newStreamFleet(t, 2, -1, 1)
	jobs := testJobs(t, n)
	fakes[0].frame = func(_, frame int) frameAction {
		if frame == k {
			return frameCut
		}
		return frameDeliver
	}
	home, peer := c.members[0], c.members[1]
	got := dispatchRun(t, context.Background(), c, home, jobs)
	for i := range jobs {
		want := 1
		if i >= k {
			want = 2
		}
		if got.err[i] != nil || got.node[i] != want {
			t.Fatalf("job %d answered by node %d (err %v), want node %d", i, got.node[i], got.err[i], want)
		}
	}
	if runs, _, _ := fakes[1].snapshot(); len(runs) != 1 || !slices.Equal(runs[0], loopNames(jobs[k:])) {
		t.Fatalf("the peer received %v, want the undelivered suffix %v as one run", runs, loopNames(jobs[k:]))
	}
	if runs, _, _ := fakes[0].snapshot(); len(runs) != 1 {
		t.Fatalf("the failed member was tried %d times, want once", len(runs))
	}
	if home.healthy() {
		t.Fatal("a cut stream did not eject the member")
	}
	if got, want := home.failovers.Value(), uint64(n-k); got != want {
		t.Fatalf("failovers counted against the failed node: %d, want %d (one per rerouted job)", got, want)
	}
	if home.jobs.Value() != k || peer.jobs.Value() != n-k {
		t.Fatalf("jobs answered: home %d, peer %d; want %d and %d", home.jobs.Value(), peer.jobs.Value(), k, n-k)
	}
}

// TestRunRefusedAtSubmit: a node that refuses the run for its own reasons
// (503 draining, 429 queue full) loses the whole run to another member; a
// run the node calls wrong (400) is final for every job of it — another
// node would refuse it identically.
func TestRunRefusedAtSubmit(t *testing.T) {
	for _, code := range []int{503, 429, 400} {
		t.Run(http.StatusText(code), func(t *testing.T) {
			c, fakes := newStreamFleet(t, 2, -1, 1)
			jobs := testJobs(t, 5)
			fakes[0].refuse = &StatusError{Code: code, Msg: "refused"}
			home := c.members[0]
			got := dispatchRun(t, context.Background(), c, home, jobs)
			peerRuns, _, _ := fakes[1].snapshot()
			if code == 400 {
				for i := range jobs {
					var se *StatusError
					if !errors.As(got.err[i], &se) || se.Code != 400 {
						t.Fatalf("job %d: want the node's 400 as its final error, got %v", i, got.err[i])
					}
				}
				if len(peerRuns) != 0 {
					t.Fatalf("a permanent refusal was retried on the peer: %v", peerRuns)
				}
				if !home.healthy() {
					t.Fatal("a permanent refusal ejected the member")
				}
				return
			}
			for i := range jobs {
				if got.err[i] != nil || got.node[i] != 2 {
					t.Fatalf("job %d answered by node %d (err %v), want the peer", i, got.node[i], got.err[i])
				}
			}
			if len(peerRuns) != 1 || !slices.Equal(peerRuns[0], loopNames(jobs)) {
				t.Fatalf("the peer received %v, want the whole run at once", peerRuns)
			}
			if home.healthy() {
				t.Fatalf("a %d refusal did not eject the member", code)
			}
			if got := home.failovers.Value(); got != uint64(len(jobs)) {
				t.Fatalf("failovers = %d, want %d", got, len(jobs))
			}
		})
	}
}

// TestRunStallIsHedgedOnce: a run that goes silent after k outcomes has its
// undelivered suffix duplicated, once, as a run on the peer; the first answer
// per job wins, the loser's ticket is cancelled on its node, and the hedge —
// fired and won — is attributed to the slow primary, which is not ejected.
func TestRunStallIsHedgedOnce(t *testing.T) {
	const n, k = 8, 3
	c, fakes := newStreamFleet(t, 2, 5*time.Millisecond, 1)
	jobs := testJobs(t, n)
	fakes[0].frame = func(_, frame int) frameAction {
		if frame == k {
			return frameStall
		}
		return frameDeliver
	}
	home, peer := c.members[0], c.members[1]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	got := dispatchRun(t, ctx, c, home, jobs)
	for i := range jobs {
		want := 1
		if i >= k {
			want = 2
		}
		if got.err[i] != nil || got.node[i] != want {
			t.Fatalf("job %d answered by node %d (err %v), want node %d", i, got.node[i], got.err[i], want)
		}
	}
	if runs, _, _ := fakes[1].snapshot(); len(runs) != 1 || !slices.Equal(runs[0], loopNames(jobs[k:])) {
		t.Fatalf("the hedge carried %v, want the undelivered suffix %v as one run", runs, loopNames(jobs[k:]))
	}
	if _, cancelled, finished := fakes[0].snapshot(); cancelled != 1 || finished != 1 {
		t.Fatalf("the stalled primary: %d exchanges returned, %d with their ticket cancelled; want 1 and 1", finished, cancelled)
	}
	if f, w := home.hedgesFired.Value(), home.hedgesWon.Value(); f != 1 || w != 1 {
		t.Fatalf("hedges against the slow primary: %d fired, %d won; want 1 and 1", f, w)
	}
	if f, w := peer.hedgesFired.Value(), peer.hedgesWon.Value(); f != 0 || w != 0 {
		t.Fatalf("hedge attributed to the peer (%d fired, %d won)", f, w)
	}
	if !home.healthy() {
		t.Fatal("losing a hedge ejected the primary")
	}
	if home.failovers.Value() != 0 {
		t.Fatal("a hedge was counted as a failover")
	}
}

// TestRunUnprovableOutcomeIsUndelivered: an outcome that fails its proof is
// not an answer. The rest of the run stands; that job alone is compiled
// elsewhere, and the node that sent it is ejected.
func TestRunUnprovableOutcomeIsUndelivered(t *testing.T) {
	const n, bad = 6, 2
	c, fakes := newStreamFleet(t, 2, -1, 1)
	jobs := testJobs(t, n)
	fakes[0].frame = func(_, frame int) frameAction {
		if frame == bad {
			return frameUnproven
		}
		return frameDeliver
	}
	home := c.members[0]
	got := dispatchRun(t, context.Background(), c, home, jobs)
	for i := range jobs {
		want := 1
		if i == bad {
			want = 2
		}
		if got.err[i] != nil || got.node[i] != want {
			t.Fatalf("job %d answered by node %d (err %v), want node %d", i, got.node[i], got.err[i], want)
		}
	}
	if runs, _, _ := fakes[1].snapshot(); len(runs) != 1 || !slices.Equal(runs[0], loopNames(jobs[bad:bad+1])) {
		t.Fatalf("the peer received %v, want the one unproven job", runs)
	}
	if home.healthy() {
		t.Fatal("an unprovable outcome did not eject the member")
	}
	if got := home.failovers.Value(); got != 1 {
		t.Fatalf("failovers = %d, want 1", got)
	}
}

// TestStreamEarlyBreakCancelsEveryOpenTicket: breaking out of the iteration
// cancels the ticket of every exchange still open — each fake sees it — and
// by the time Stream returns no goroutine of the call is left.
func TestStreamEarlyBreakCancelsEveryOpenTicket(t *testing.T) {
	c, fakes := newStreamFleet(t, 2, -1, 1)
	for _, f := range fakes {
		f.frame = func(_, frame int) frameAction {
			if frame == 1 {
				return frameStall // one outcome, then silence until cancelled
			}
			return frameDeliver
		}
	}
	jobs := testJobs(t, 12)
	for i := range jobs {
		jobs[i].Graph = jobs[0].Graph // one shape: runs of 6 and 4, two left queued
	}
	before := runtime.NumGoroutine()
	for range c.Stream(context.Background(), jobs) {
		// Break with both members' exchanges open.
		waitFor(t, "both exchanges to open", func() bool {
			for _, f := range fakes {
				if runs, _, _ := f.snapshot(); len(runs) == 0 {
					return false
				}
			}
			return true
		})
		break
	}
	for i, f := range fakes {
		if runs, cancelled, finished := f.snapshot(); len(runs) != 1 || finished != 1 || cancelled != 1 {
			t.Fatalf("node %d: %d exchanges opened, %d returned, %d saw their ticket cancelled; want 1 of each",
				i, len(runs), finished, cancelled)
		}
	}
	// The goroutine that closes the result channel may still be on its way
	// out; nothing else may be.
	waitFor(t, "the call's goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
}

// TestStreamClaimsTheEvenShare drives the claiming policy through Stream:
// every job of the batch hashes to one member, so bounded-load routing gives
// it 1.25× the even share + 1 and spills the rest to the peer. The home
// sends the even share as one run and what is above it as the next; the
// peer, idle once its own queue is done, takes nothing from the home's.
// With one exchange in flight per member the home's second run waits for
// its first; with two, every run is out before the first exchange answers.
func TestStreamClaimsTheEvenShare(t *testing.T) {
	for _, inFlight := range []int{1, 2} {
		t.Run(fmt.Sprintf("NodeInFlight=%d", inFlight), func(t *testing.T) {
			c, fakes := newStreamFleet(t, 2, -1, inFlight)
			jobs := testJobs(t, 12)
			for i := range jobs {
				jobs[i].Graph = jobs[0].Graph // one shape: one home
			}
			home := c.routeOne(jobs[0])
			hi := memberIndex(t, c, home)
			peer := c.members[1-hi]
			// share = 6, bound = 8: the home holds 8, the peer 4. No
			// exchange answers until the peer's run has returned and, with
			// two in flight, the home's second run is out too.
			opened := func() bool {
				runs, _, _ := fakes[hi].snapshot()
				_, _, finished := fakes[1-hi].snapshot()
				return finished == 1 && len(runs) == inFlight
			}
			release := make(chan struct{})
			fakes[hi].frame = func(_, frame int) frameAction {
				if frame == 0 {
					<-release
				}
				return frameDeliver
			}
			outs := make(chan int)
			go func() {
				n := 0
				for _, out := range c.Stream(context.Background(), jobs) {
					if out.Err == nil {
						n++
					}
				}
				outs <- n
			}()
			waitFor(t, "the peer's run to return and the home's runs to open", opened)
			close(release)
			if n := <-outs; n != len(jobs) {
				t.Fatalf("stream delivered %d of %d jobs without error", n, len(jobs))
			}
			sizes := func(f *fakeStreamNode) []int {
				runs, _, _ := f.snapshot()
				s := make([]int, len(runs))
				for i, r := range runs {
					s[i] = len(r)
				}
				return s
			}
			got := sizes(fakes[hi])
			if inFlight > 1 {
				// Both runs are out at once; their exchanges open in
				// either order.
				slices.SortFunc(got, func(a, b int) int { return b - a })
			}
			if !slices.Equal(got, []int{6, 2}) {
				t.Fatalf("the home's runs were %v jobs long, want [6 2]: the even share, then the rest of its queue", got)
			}
			if got := sizes(fakes[1-hi]); !slices.Equal(got, []int{4}) {
				t.Fatalf("the peer's runs were %v jobs long, want [4]: its own queue and nothing more", got)
			}
			assertFleetAgreesWithRegistry(t, c)
			if home.jobs.Value() != 8 || peer.jobs.Value() != 4 {
				t.Fatalf("jobs answered: home %d, peer %d; want 8 and 4", home.jobs.Value(), peer.jobs.Value())
			}
		})
	}
}
