// Package cluster fans compilation batches across a fleet of compilation
// servers: the third Backend implementation, after the in-process engine
// (internal/driver) and the single-server client. Each job is routed by
// consistent hashing on the *canonical* fingerprint component of its
// JobKey — the isomorphism-invariant digest, so renamed/reordered clones
// of one loop always land on the same node and hit that node's semantic
// cache tier instead of recompiling. What is then dispatched is the run: a
// slice of one member's routed queue, sent as one ticket and streamed back
// outcome by outcome, so a node's worker pool serves a sub-batch and a job
// costs a frame, not an HTTP exchange; a single job is a run of one. Around
// that core sit the fleet mechanics, all of which move runs: health-checked
// membership (periodic probes with jitter, eject on dispatch failure,
// readmit on recovery), per-node windows of concurrent exchanges with work
// stealing when a node drains or falls behind, hedged dispatch for
// stragglers (the undelivered suffix of a run gone silent is duplicated on
// a peer after a latency-percentile delay; the first answer per job wins,
// the loser is cancelled — results are content-addressed and deterministic,
// so a duplicated compilation is only wasted heat, never a wrong answer),
// and transport-aware failover that distinguishes "the node could not
// answer" (the undelivered suffix goes elsewhere) from "the job failed to
// compile" (a legitimate, deterministic outcome that every node would
// reproduce).
//
// The public constructor is clusched.NewCluster; this package keeps the
// mechanics testable against in-process fakes.
package cluster

import (
	"context"
	"fmt"
	"iter"
	"log/slog"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/telemetry"
	"clusched/internal/wire"
)

// Member names one node of the fleet. Name is the routing identity: ring
// positions derive from it, so renaming a node reshuffles its shard.
type Member struct {
	Name string
	Node Node
}

// Config parameterizes a Cluster.
type Config struct {
	// Members is the fleet; at least one is required.
	Members []Member
	// NodeInFlight bounds concurrent exchanges per member — runs in flight,
	// each one ticket on the node, whatever its length — and is the backlog
	// a queue must exceed before an idle peer may steal from it; ≤0 means
	// DefaultNodeInFlight.
	NodeInFlight int
	// Hedge controls straggler hedging: 0 (default) adapts the hedge delay
	// to a high percentile of the observed gaps between answers, >0 fixes
	// the delay, <0 disables hedging.
	Hedge time.Duration
	// HealthInterval paces the membership probes (jittered ±20%); 0 means
	// DefaultHealthInterval, <0 disables probing (members are then only
	// ejected by dispatch failures and readmitted by the next probe-free
	// recovery path: a successful failover send).
	HealthInterval time.Duration
	// Registry receives the cluster's per-node instruments; nil creates a
	// private registry (exposed via Registry()).
	Registry *telemetry.Registry
	// Logger receives membership transitions and hedge/steal diagnostics;
	// nil discards them.
	Logger *slog.Logger
}

// Defaults for Config zero values.
const (
	DefaultNodeInFlight   = 4
	DefaultHealthInterval = 2 * time.Second
)

// Hedging tuning: the adaptive delay is hedgeFactor × the p95 of the recent
// gaps between answers (a run's send to its first outcome, one outcome to the
// next), floored so microsecond-fast fleets do not hedge every run, and it
// needs hedgeMinSamples observations before the first hedge can fire.
const (
	hedgeFactor     = 4
	hedgeFloor      = 10 * time.Millisecond
	hedgeMinSamples = 16
	latWindow       = 64
)

// routeLoadFactor is the bounded-load constant: at batch routing time no
// member is assigned more than routeLoadFactor × the even share before the
// walk spills to the next node on the ring.
const routeLoadFactor = 1.25

// member is the live state behind a Member.
type member struct {
	name string
	node Node

	up       atomic.Bool
	inflight atomic.Int64
	lastErr  atomic.Value // string

	// The member's event counts: its children of the registry's per-node
	// families, resolved once in New. FleetStats reads the same cells.
	jobs, steals, hedgesFired, hedgesWon, ejections, failovers *telemetry.Counter
}

func (m *member) healthy() bool { return m.up.Load() }

// Cluster is the fleet backend. It satisfies the public Backend contract
// structurally (Compile + Stream in driver types); clusched.NewCluster
// pins that at compile time.
type Cluster struct {
	members      []*member
	ring         *ring
	nodeInFlight int
	hedge        time.Duration
	logger       *slog.Logger

	registry *telemetry.Registry

	latMu  sync.Mutex
	lat    [latWindow]time.Duration
	latN   int // total samples observed
	closed chan struct{}
	once   sync.Once
}

// New builds a Cluster over the members and starts its membership loop.
// Callers must Close it when done.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("cluster: no members")
	}
	c := &Cluster{
		nodeInFlight: cfg.NodeInFlight,
		hedge:        cfg.Hedge,
		logger:       cfg.Logger,
		registry:     cfg.Registry,
		closed:       make(chan struct{}),
	}
	if c.nodeInFlight <= 0 {
		c.nodeInFlight = DefaultNodeInFlight
	}
	if c.logger == nil {
		c.logger = slog.New(slog.DiscardHandler)
	}
	if c.registry == nil {
		c.registry = telemetry.NewRegistry()
	}
	names := make(map[string]bool, len(cfg.Members))
	for _, mm := range cfg.Members {
		if mm.Name == "" || mm.Node == nil {
			return nil, fmt.Errorf("cluster: member needs a name and a node")
		}
		if names[mm.Name] {
			return nil, fmt.Errorf("cluster: duplicate member %q", mm.Name)
		}
		names[mm.Name] = true
	}
	reg := c.registry
	jobs := reg.NewCounterVec("clusched_cluster_jobs_total",
		"Jobs dispatched and answered, by node.", "node")
	steals := reg.NewCounterVec("clusched_cluster_steals_total",
		"Jobs stolen from another node's queue, by the thief node.", "node")
	hedgesFired := reg.NewCounterVec("clusched_cluster_hedges_fired_total",
		"Hedged duplicate dispatches fired against a slow primary, by primary node.", "node")
	hedgesWon := reg.NewCounterVec("clusched_cluster_hedges_won_total",
		"Hedges whose duplicate answered first, by primary node.", "node")
	ejections := reg.NewCounterVec("clusched_cluster_ejections_total",
		"Membership ejections after dispatch failures or failed probes, by node.", "node")
	failovers := reg.NewCounterVec("clusched_cluster_failovers_total",
		"Jobs rerouted to another member after a transport failure, by failed node.", "node")
	for _, mm := range cfg.Members {
		m := &member{name: mm.Name, node: mm.Node,
			jobs: jobs.With(mm.Name), steals: steals.With(mm.Name),
			hedgesFired: hedgesFired.With(mm.Name), hedgesWon: hedgesWon.With(mm.Name),
			ejections: ejections.With(mm.Name), failovers: failovers.With(mm.Name)}
		m.up.Store(true)
		c.members = append(c.members, m)
	}
	c.ring = newRing(c.members)
	reg.NewGaugeFunc("clusched_cluster_members",
		"Configured fleet size.",
		func() float64 { return float64(len(c.members)) })
	reg.NewGaugeFunc("clusched_cluster_members_healthy",
		"Members currently considered healthy.",
		func() float64 {
			n := 0
			for _, m := range c.members {
				if m.healthy() {
					n++
				}
			}
			return float64(n)
		})
	interval := cfg.HealthInterval
	if interval == 0 {
		interval = DefaultHealthInterval
	}
	if interval > 0 {
		go c.healthLoop(interval)
	}
	return c, nil
}

// Registry exposes the cluster's metric registry (per-node dispatch, steal,
// hedge and ejection counters, plus membership gauges).
func (c *Cluster) Registry() *telemetry.Registry { return c.registry }

// Close stops the membership loop. In-flight Streams finish on their own.
func (c *Cluster) Close() { c.once.Do(func() { close(c.closed) }) }

// healthLoop probes every member on a jittered cadence: ±20% around the
// interval, so a fleet of clients probing the same servers spreads out
// instead of thundering in lockstep.
func (c *Cluster) healthLoop(interval time.Duration) {
	for {
		wait := time.Duration(float64(interval) * (0.8 + 0.4*rand.Float64()))
		select {
		case <-c.closed:
			return
		case <-time.After(wait):
		}
		probeTimeout := min(interval, 2*time.Second)
		var wg sync.WaitGroup
		for _, m := range c.members {
			wg.Add(1)
			go func(m *member) {
				defer wg.Done()
				c.probe(m, probeTimeout)
			}(m)
		}
		wg.Wait()
	}
}

// probe checks one member and flips its membership accordingly. Members
// whose node cannot be probed are optimistically readmitted: their next
// dispatch failure ejects them again, and without a probe there is no
// other road back in.
func (c *Cluster) probe(m *member, timeout time.Duration) {
	hc, ok := m.node.(HealthChecker)
	if !ok {
		m.up.Store(true)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := hc.Health(ctx)
	was := m.up.Swap(err == nil)
	switch {
	case was && err != nil:
		m.ejections.Inc()
		m.lastErr.Store(err.Error())
		c.logger.Warn("cluster: member ejected by probe", "node", m.name, "error", err)
	case !was && err == nil:
		c.logger.Info("cluster: member readmitted", "node", m.name)
	}
}

// eject benches a member after a dispatch failure (the probe loop readmits
// it once it answers again).
func (c *Cluster) eject(m *member, err error) {
	if m.up.Swap(false) {
		m.ejections.Inc()
		m.lastErr.Store(err.Error())
		c.logger.Warn("cluster: member ejected by dispatch failure", "node", m.name, "error", err)
	}
}

// routeKey is the consistent-hash key of a job: the canonical fingerprint —
// the same component JobKey v4 is keyed on — finalized through splitmix64.
// Isomorphic clones share a canonical fingerprint, so they share a node,
// which is exactly what keeps the per-node semantic cache tiers hot.
func routeKey(j driver.Job) uint64 {
	return splitmix64(j.Graph.CanonicalFingerprint())
}

// routeOne picks the home member for a single job: the ring successor,
// skipping unhealthy members and members whose exchange window is full.
func (c *Cluster) routeOne(j driver.Job) *member {
	return c.ring.lookup(routeKey(j), func(m *member) bool {
		return m.healthy() && m.inflight.Load() < int64(c.nodeInFlight)
	})
}

// Compile dispatches one job to its home node — a run of one, the unary
// half of the Backend contract.
func (c *Cluster) Compile(ctx context.Context, j driver.Job) (*pipeline.Result, error) {
	var out driver.Outcome
	l := newLedger([]driver.Job{j}, func(_ int, o driver.Outcome) bool {
		out = o
		return true
	})
	c.dispatch(ctx, l, c.routeOne(j), []int{0})
	return out.Result, out.Err
}

// route assigns every job of a batch to a member queue: ring successor by
// canonical fingerprint, bounded-load spill when a shard would exceed
// routeLoadFactor × the even share, unhealthy members skipped entirely. It
// also returns the member count the even share was taken over.
func (c *Cluster) route(jobs []driver.Job) (map[*member][]int, int) {
	assign := make(map[*member][]int, len(c.members))
	healthy := 0
	for _, m := range c.members {
		if m.healthy() {
			healthy++
		}
	}
	if healthy == 0 {
		healthy = len(c.members)
	}
	bound := int(routeLoadFactor*float64(len(jobs))/float64(healthy)) + 1
	for i, j := range jobs {
		m := c.ring.lookup(routeKey(j), func(m *member) bool {
			return m.healthy() && len(assign[m]) < bound
		})
		assign[m] = append(assign[m], i)
	}
	return assign, healthy
}

// Stream implements the Backend batch contract over the fleet. The unit it
// dispatches is the run: a slice of one member's routed queue, sent as one
// exchange (one ticket, streamed back outcome by outcome). Each member has
// NodeInFlight workers; a worker claims from the head of its member's queue
// a run of at most the batch's even share, so what reaches a node is a
// sub-batch its whole worker pool serves, and what bounded-load routing put
// above the even share stays queued — the home's next run, unless an idle
// peer steals it first (the tail of the longest backlog past the in-flight
// floor: the jobs their home would reach last, the cheapest affinity to
// sacrifice). Every job yields exactly once, tagged with its index, the
// moment its outcome arrives; cancelling ctx mid-stream stamps the remaining
// jobs with the cancellation; stopping the iteration early abandons the
// remaining work. Either way every ticket still open on a node is cancelled
// there before Stream returns.
func (c *Cluster) Stream(ctx context.Context, jobs []driver.Job) iter.Seq2[int, driver.Outcome] {
	return func(yield func(int, driver.Outcome) bool) {
		if len(jobs) == 0 {
			return
		}
		sctx, cancel := context.WithCancel(ctx)

		type indexed struct {
			i   int
			out driver.Outcome
		}
		// Unbuffered on purpose, exactly like the local engine: a worker
		// hands its outcome to the consumer before reading the next, so the
		// first yield happens while the rest of the batch is still
		// compiling — the streaming guarantee the conformance suite pins.
		results := make(chan indexed)
		stop := make(chan struct{}) // closed when the consumer is gone
		l := newLedger(jobs, func(i int, out driver.Outcome) bool {
			select {
			case results <- indexed{i, out}:
				return true
			case <-stop:
				return false
			}
		})

		queues, healthy := c.route(jobs)
		b := &batchState{
			queues:     queues,
			order:      c.members,
			share:      (len(jobs) + healthy - 1) / healthy,
			stealFloor: c.nodeInFlight,
		}
		// Every worker's first run is claimed here, home queues before any
		// steal, so no idle member raids a queue its home has not reached
		// yet. Queues never refill (failover happens inside dispatch), so a
		// worker with nothing to claim now never will have and is not
		// started.
		type start struct {
			m   *member
			run []int
		}
		starts := make([]start, 0, len(c.members)*c.nodeInFlight)
		for _, m := range c.members {
			for w := 0; w < c.nodeInFlight; w++ {
				starts = append(starts, start{m, b.next(m, false)})
			}
		}
		var wg sync.WaitGroup
		for _, s := range starts {
			if s.run == nil {
				if s.run = b.next(s.m, true); s.run == nil {
					continue
				}
			}
			wg.Add(1)
			go func(m *member, run []int) {
				defer wg.Done()
				for ; run != nil; run = b.next(m, true) {
					c.dispatch(sctx, l, m, run)
				}
			}(s.m, s.run)
		}
		go func() {
			wg.Wait()
			close(results)
		}()

		// On every exit from the range below — the batch is complete, yield
		// returned false, a consumer panic, runtime.Goexit — wait the
		// workers out, so no exchange and no goroutine outlives the call and
		// every open ticket has been cancelled on its node. Cancel before
		// stop: a worker that finds the consumer gone must already see sctx
		// cancelled, or it would take the refusal for a failure of its node.
		defer func() {
			cancel()
			close(stop)
			for range results {
			}
		}()
		for r := range results {
			if !yield(r.i, r.out) {
				return
			}
		}
	}
}

// ledger is the delivery record of one Stream or Compile call: which jobs
// have been answered, whichever run, member or hedge carried the answer.
// Claiming a job before emitting it is what makes delivery exactly-once
// while a run's undelivered suffix fails over or is duplicated by a hedge.
type ledger struct {
	jobs     []driver.Job
	answered []atomic.Bool
	// emit hands one answered job to the caller; false means the caller
	// has stopped listening.
	emit func(i int, out driver.Outcome) bool
}

func newLedger(jobs []driver.Job, emit func(int, driver.Outcome) bool) *ledger {
	return &ledger{jobs: jobs, answered: make([]atomic.Bool, len(jobs)), emit: emit}
}

// claim marks job i answered; only the first claim succeeds.
func (l *ledger) claim(i int) bool { return l.answered[i].CompareAndSwap(false, true) }

// pending returns the jobs of run nobody has answered yet — its undelivered
// suffix, in a slice of its own; nil when there are none.
func (l *ledger) pending(run []int) []int {
	var rest []int
	for _, i := range run {
		if !l.answered[i].Load() {
			rest = append(rest, i)
		}
	}
	return rest
}

// fail answers every still-pending job of run with err.
func (l *ledger) fail(run []int, err error) {
	for _, i := range run {
		if l.claim(i) && !l.emit(i, driver.Outcome{Job: l.jobs[i], Err: err}) {
			return
		}
	}
}

// batchState is the mutable routing state of one Stream call: per-member
// queues plus the steal scan.
type batchState struct {
	mu     sync.Mutex
	queues map[*member][]int
	order  []*member
	// share is the batch's even share, ⌈jobs / healthy members⌉ — the number
	// route's bound is built from — and the most a member claims from its
	// own queue in one run. Whole queues would leave nothing to steal,
	// halves keep the most backlog but double the exchanges; the even share
	// leaves exactly what routing put above it (≤ 25% + 1).
	share int
	// stealFloor is the backlog a victim must exceed before an idle member
	// may steal from it: a queue no longer than the in-flight window is
	// already fully dispatchable by its home node, so stealing it would
	// trade cache affinity for nothing. Only genuine backlogs — a slow or
	// dead node falling behind its shard — are rebalanced.
	stealFloor int
}

// next claims the member's next run: the head of its own queue, at most the
// even share, or — when steal is set and that queue is empty — the tail of
// the longest other backlog past the steal floor, half of what exceeds the
// floor, every stolen job counted to the thief. It returns nil when there is
// nothing to claim; with steal set that means no claimable work remains
// anywhere — sub-floor remainders drain at their home node.
func (b *batchState) next(m *member, steal bool) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if q := b.queues[m]; len(q) > 0 {
		n := min(len(q), b.share)
		b.queues[m] = q[n:]
		return q[:n:n]
	}
	if !steal {
		return nil
	}
	var victim *member
	best := b.stealFloor
	for _, o := range b.order {
		if o != m && len(b.queues[o]) > best {
			victim, best = o, len(b.queues[o])
		}
	}
	if victim == nil {
		return nil
	}
	q := b.queues[victim]
	cut := len(q) - (len(q)-b.stealFloor+1)/2
	b.queues[victim] = q[:cut:cut]
	m.steals.Add(uint64(len(q) - cut))
	return q[cut:]
}

// dispatch serves one run to a final outcome for each of its jobs: try the
// home member (hedged), and on a retryable transport failure — the member
// could not be reached, refused the run, cut its stream, or answered
// something that fails its proof — fail over what the ledger still lacks,
// as a run, to the next member. Each member is tried at most once per job,
// and a compilation error inside a delivered outcome is final (it is
// deterministic; every node would reproduce it). The cluster never resumes
// a cut stream: the suffix is simply compiled elsewhere.
func (c *Cluster) dispatch(ctx context.Context, l *ledger, home *member, run []int) {
	m := home
	tried := make(map[*member]bool, 2)
	if !m.healthy() {
		if alt := c.pick(tried, m); alt != nil {
			m = alt
		}
	}
	var firstErr error
	for {
		if err := ctx.Err(); err != nil {
			l.fail(run, err)
			return
		}
		err := c.tryRun(ctx, l, m, run, tried)
		if run = l.pending(run); run == nil {
			return
		}
		switch {
		case ctx.Err() != nil:
			l.fail(run, ctx.Err())
			return
		case err == nil:
			err = fmt.Errorf("cluster: node %s ended a run with %d jobs unanswered", m.name, len(run))
		case !retryable(err):
			l.fail(run, err)
			return
		}
		m.failovers.Add(uint64(len(run)))
		if firstErr == nil {
			firstErr = err
		}
		next := c.pick(tried, nil)
		if next == nil {
			l.fail(run, fmt.Errorf("cluster: job failed on every reachable member: %w", firstErr))
			return
		}
		c.logger.Debug("cluster: failover", "from", m.name, "to", next.name, "jobs", len(run))
		m = next
	}
}

// pick selects a failover or reroute target: the least-loaded healthy
// untried member, falling back to any untried member (a just-ejected node
// may still be the only one left).
func (c *Cluster) pick(tried map[*member]bool, exclude *member) *member {
	var best *member
	healthyBest := false
	for _, m := range c.members {
		if tried[m] || m == exclude {
			continue
		}
		h := m.healthy()
		switch {
		case best == nil,
			h && !healthyBest,
			h == healthyBest && m.inflight.Load() < best.inflight.Load():
			best, healthyBest = m, h
		}
	}
	return best
}

// hedge is the state the two exchanges of a hedged run share.
type hedge struct {
	primary *member
	// cancel ends both exchanges; each cancels its unfinished ticket on its
	// node on the way out.
	cancel context.CancelFunc
	// left counts the jobs of the run the ledger still lacks.
	left atomic.Int32
	// last is when the primary last gave a sign of life (UnixNano).
	last atomic.Int64
	// fired: the duplicate is out. won: it has answered a job first.
	fired, won atomic.Bool
}

// tryRun sends the run to one member as one exchange, hedged: if the member
// stays silent for the hedge delay — from the send to the first outcome, or
// from one outcome to the next — what the ledger still lacks is duplicated
// as a run on a peer. Both exchanges feed the one ledger, the first answer
// per job wins, and once the ledger has the whole run both are cancelled;
// results are content-addressed and deterministic, so the duplicate can only
// waste work, never change an answer. Whether the run may be hedged, onto
// whom and after what delay is decided here, when it is sent. A hedge is
// counted against the slow primary, and as won once its duplicate has
// answered a job first. The error is the primary's transport verdict, or
// the duplicate's when the primary has none.
func (c *Cluster) tryRun(ctx context.Context, l *ledger, m *member, run []int, tried map[*member]bool) error {
	tried[m] = true
	var alt *member
	delay, hedging := c.hedgeDelay()
	if hedging {
		alt = c.hedgePeer(m)
	}
	if alt == nil {
		return c.send(ctx, l, m, run, nil)
	}

	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	h := &hedge{primary: m, cancel: cancel}
	h.left.Store(int32(len(run)))
	h.last.Store(time.Now().UnixNano())
	type reply struct {
		err   error
		hedge bool
	}
	ch := make(chan reply, 2) // one per exchange: the primary's, the duplicate's
	go func() { ch <- reply{c.send(hctx, l, m, run, h), false} }()
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var perr, herr error
	for inflight := 1; inflight > 0; {
		select {
		case r := <-ch:
			inflight--
			if r.hedge {
				herr = r.err
			} else {
				perr = r.err
				timer.Stop()
			}
		case <-timer.C:
			if idle := time.Since(time.Unix(0, h.last.Load())); idle < delay {
				timer.Reset(delay - idle)
				continue
			}
			// fired before the suffix is read: whoever claims the run's last
			// job from here on cancels both exchanges.
			h.fired.Store(true)
			suffix := l.pending(run)
			if suffix == nil {
				continue // answered in full; the primary is about to return
			}
			tried[alt] = true
			m.hedgesFired.Inc()
			c.logger.Debug("cluster: hedge fired", "primary", m.name, "hedge", alt.name, "delay", delay, "jobs", len(suffix))
			inflight++
			go func() { ch <- reply{c.send(hctx, l, alt, suffix, h), true} }()
		}
	}
	if perr == nil {
		return herr
	}
	return perr
}

// hedgePeer picks where a hedge goes: the least-loaded healthy member other
// than the primary.
func (c *Cluster) hedgePeer(primary *member) *member {
	var best *member
	for _, m := range c.members {
		if m == primary || !m.healthy() {
			continue
		}
		if best == nil || m.inflight.Load() < best.inflight.Load() {
			best = m
		}
	}
	return best
}

// send is one accounted exchange with a member: the run goes out as one
// ticket (a run of one as one unary request), and every outcome that comes
// back is claimed in the ledger and emitted. h is non-nil for the two
// exchanges of a hedged run. A retryable failure ejects the member; a clean
// exchange readmits it.
func (c *Cluster) send(ctx context.Context, l *ledger, m *member, run []int, h *hedge) error {
	m.inflight.Add(1)
	defer m.inflight.Add(-1)
	jobs := make([]driver.Job, len(run))
	for k, i := range run {
		jobs[k] = l.jobs[i]
	}
	duplicate := h != nil && m != h.primary
	last := time.Now()
	err := doRun(ctx, m.node, jobs, func(k int, out driver.Outcome) bool {
		// The gaps the hedge delay is estimated from, and measured against:
		// send to first outcome, outcome to outcome.
		now := time.Now()
		c.observeLatency(now.Sub(last))
		last = now
		if h != nil && !duplicate {
			h.last.Store(now.UnixNano())
		}
		if !l.claim(run[k]) {
			return true // the other exchange of a hedged run answered first
		}
		m.jobs.Inc()
		ok := l.emit(run[k], out)
		if h != nil {
			if duplicate && h.won.CompareAndSwap(false, true) {
				h.primary.hedgesWon.Inc()
			}
			if h.left.Add(-1) == 0 && h.fired.Load() {
				h.cancel()
			}
		}
		return ok
	})
	switch {
	case err == nil:
		if !m.up.Swap(true) {
			// A clean exchange is as good as a probe: readmit.
			c.logger.Info("cluster: member readmitted by successful dispatch", "node", m.name)
		}
	case ctx.Err() == nil && retryable(err):
		c.eject(m, err)
	}
	return err
}

// observeLatency feeds the hedge-delay estimator's sliding window; only the
// adaptive delay reads it.
func (c *Cluster) observeLatency(d time.Duration) {
	if c.hedge != 0 {
		return
	}
	c.latMu.Lock()
	c.lat[c.latN%latWindow] = d
	c.latN++
	c.latMu.Unlock()
}

// hedgeDelay resolves the hedge delay of the run about to be sent: fixed
// when configured, otherwise hedgeFactor × the p95 of the recent window of
// answer gaps (floored), and no hedging at all until enough samples exist —
// hedging against an unknown latency distribution would just double the
// traffic.
func (c *Cluster) hedgeDelay() (time.Duration, bool) {
	if c.hedge < 0 {
		return 0, false
	}
	if c.hedge > 0 {
		return c.hedge, true
	}
	c.latMu.Lock()
	window := c.lat // a copy: sorted outside the lock
	n := min(c.latN, latWindow)
	c.latMu.Unlock()
	if n < hedgeMinSamples {
		return 0, false
	}
	slices.Sort(window[:n])
	return max(window[n*95/100]*hedgeFactor, hedgeFloor), true
}

// NodeStats is one member's slice of the fleet rollup.
type NodeStats struct {
	Name    string `json:"name"`
	Healthy bool   `json:"healthy"`
	// InFlight is the cluster's own window usage right now: exchanges open
	// against the node, each carrying one run.
	InFlight int64 `json:"in_flight"`
	// Jobs counts the jobs this node answered — one per delivered outcome,
	// whichever run carried it; Steals the jobs it took over from another
	// member's queue.
	Jobs   uint64 `json:"jobs"`
	Steals uint64 `json:"steals"`
	// HedgesFired/HedgesWon count the runs hedged against this node as the
	// slow primary, and how many of those duplicates answered a job first.
	HedgesFired uint64 `json:"hedges_fired"`
	HedgesWon   uint64 `json:"hedges_won"`
	Ejections   uint64 `json:"ejections"`
	LastError   string `json:"last_error,omitempty"`
	// Service is the node's own /stats answer (queue depth, cache and
	// semantic-hit counters, per-strategy traffic); nil when the node
	// does not expose stats or did not answer (see ServiceError).
	Service      *wire.ServiceStats `json:"service,omitempty"`
	ServiceError string             `json:"service_error,omitempty"`
}

// FleetStats is the fleet-wide rollup: per-node detail plus sums of the
// numbers a capacity dashboard wants first.
type FleetStats struct {
	Nodes   []NodeStats `json:"nodes"`
	Healthy int         `json:"healthy"`
	// Jobs/Steals/HedgesFired/HedgesWon sum the cluster-side counters.
	Jobs        uint64 `json:"jobs"`
	Steals      uint64 `json:"steals"`
	HedgesFired uint64 `json:"hedges_fired"`
	HedgesWon   uint64 `json:"hedges_won"`
	// Queued and JobsCompiled sum the nodes' own service stats; the
	// semantic counters sum each shard's canonical-tier hits — the number
	// the affinity argument stands on.
	Queued            int    `json:"queued"`
	JobsCompiled      uint64 `json:"jobs_compiled"`
	SemanticHits      uint64 `json:"semantic_hits"`
	SemanticStoreHits uint64 `json:"semantic_store_hits"`
}

// FleetStats gathers the rollup, fanning /stats reads across the fleet
// concurrently (each bounded by ctx).
func (c *Cluster) FleetStats(ctx context.Context) FleetStats {
	fs := FleetStats{Nodes: make([]NodeStats, len(c.members))}
	var wg sync.WaitGroup
	for i, m := range c.members {
		ns := NodeStats{
			Name:        m.name,
			Healthy:     m.healthy(),
			InFlight:    m.inflight.Load(),
			Jobs:        m.jobs.Value(),
			Steals:      m.steals.Value(),
			HedgesFired: m.hedgesFired.Value(),
			HedgesWon:   m.hedgesWon.Value(),
			Ejections:   m.ejections.Value(),
		}
		if e, ok := m.lastErr.Load().(string); ok {
			ns.LastError = e
		}
		fs.Nodes[i] = ns
		if src, ok := m.node.(StatsSource); ok {
			wg.Add(1)
			go func(i int, src StatsSource) {
				defer wg.Done()
				st, err := src.Stats(ctx)
				if err != nil {
					fs.Nodes[i].ServiceError = err.Error()
					return
				}
				fs.Nodes[i].Service = &st
			}(i, src)
		}
	}
	wg.Wait()
	for i := range fs.Nodes {
		ns := &fs.Nodes[i]
		if ns.Healthy {
			fs.Healthy++
		}
		fs.Jobs += ns.Jobs
		fs.Steals += ns.Steals
		fs.HedgesFired += ns.HedgesFired
		fs.HedgesWon += ns.HedgesWon
		if ns.Service != nil {
			fs.Queued += ns.Service.Queued
			fs.JobsCompiled += ns.Service.JobsCompiled
			fs.SemanticHits += ns.Service.Cache.SemanticHits
			fs.SemanticStoreHits += ns.Service.Cache.SemanticStoreHits
		}
	}
	return fs
}
