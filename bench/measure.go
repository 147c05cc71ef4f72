package main

import (
	"context"
	"iter"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"clusched/internal/corpus/validate"
	"clusched/internal/driver"
	"clusched/internal/pipeline"
)

// compiler is the unary half of clusched.Backend, all a unary workload
// needs; batch workloads also need the streaming half.
type compiler interface {
	Compile(ctx context.Context, j driver.Job) (*pipeline.Result, error)
}

type streamer interface {
	Stream(ctx context.Context, jobs []driver.Job) iter.Seq2[int, driver.Outcome]
}

// tally accumulates one window's (or one run's) outcomes.
type tally struct {
	attempted, succeeded int
	sumII, sumMII        int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.succeeded += o.succeeded
	t.sumII += o.sumII
	t.sumMII += o.sumMII
}

func (t *tally) record(res *pipeline.Result, ok bool) {
	t.attempted++
	if ok {
		t.succeeded++
		t.sumII += int64(res.II)
		t.sumMII += int64(res.MII)
	}
}

// exec runs one window against the backend — unary Compile from
// in.callers closed-loop callers, or one Stream call per batch — and
// returns the wall time, the per-job latencies (ns, index-aligned with
// the window) and the tally. check judges every outcome after its latency
// is stamped. Latency runs from handing the job (or its batch) to the
// backend until the outcome is in the caller's hands; on corpus-sim the
// operation is Compile + validate.Schedule.
func (in *instance) exec(win *window, lat []int64, check func(i int, res *pipeline.Result, err error) bool) (time.Duration, tally) {
	ctx := context.Background()
	var total tally
	start := time.Now()
	switch {
	case win.ends != nil:
		lo := 0
		for _, hi := range win.ends {
			t0 := time.Now()
			for i, out := range in.backend.(streamer).Stream(ctx, win.jobs[lo:hi]) {
				lat[lo+i] = int64(time.Since(t0))
				total.record(out.Result, check(lo+i, out.Result, out.Err))
			}
			lo = hi
		}
	case in.callers == 1:
		for i := range win.jobs {
			in.unary(ctx, win, i, lat, check, &total)
		}
	default:
		var next atomic.Int64
		var wg sync.WaitGroup
		parts := make([]tally, in.callers)
		for c := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(win.jobs) {
						return
					}
					in.unary(ctx, win, i, lat, check, &parts[c])
				}
			}()
		}
		wg.Wait()
		for _, p := range parts {
			total.add(p)
		}
	}
	return time.Since(start), total
}

func (in *instance) unary(ctx context.Context, win *window, i int, lat []int64, check func(int, *pipeline.Result, error) bool, t *tally) {
	j := win.jobs[i]
	t0 := time.Now()
	res, err := in.backend.Compile(ctx, j)
	var div *validate.Divergence
	if in.simulate && err == nil {
		div = validateSchedule(j, res, int(win.keys[i]))
	}
	lat[i] = int64(time.Since(t0))
	ok := check(i, res, err)
	if div != nil {
		in.gate.fail(win.offset+i, "simulator divergence: "+div.String())
		ok = false
	}
	t.record(res, ok)
}

// warmUp runs the untimed warm-up window through the full correctness
// gate (sched.Verify on every schedule, bit-identity with a local
// reference where the workload requires it).
func (in *instance) warmUp(win *window) {
	in.gate.begin(win)
	in.exec(win, make([]int64, len(win.jobs)), func(i int, res *pipeline.Result, err error) bool {
		return in.gate.full(win, i, res, err)
	})
}

// endToEnd is the untraced measurement of one workload. Every timing is
// kept per window and reported as the median over windows, so one window
// that shared its CPU with a noisy neighbour does not move the result.
type endToEnd struct {
	tally
	p50s, p99s []float64 // per window, µs
	rates      []float64 // per window, jobs/s
	samples    int
	mallocs    uint64
	liveHeap   uint64
}

// measure runs every window of the instance, timing only exec: window
// generation and percentile extraction happen between windows, off the
// clock and outside the Mallocs delta.
func (in *instance) measure() endToEnd {
	var e endToEnd
	var ms runtime.MemStats
	var lat []int64
	for w := 0; w < in.windows; w++ {
		win := in.gen(w)
		if cap(lat) < len(win.jobs) {
			lat = make([]int64, len(win.jobs))
		}
		lat = lat[:len(win.jobs)]
		in.gate.window = w
		check := func(i int, res *pipeline.Result, err error) bool { return in.gate.cheap(win, i, res, err) }
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		wall, t := in.exec(win, lat, check)
		runtime.ReadMemStats(&ms)
		e.mallocs += ms.Mallocs - before
		e.add(t)
		slices.Sort(lat)
		e.p50s = append(e.p50s, quantile(lat, 0.50))
		e.p99s = append(e.p99s, quantile(lat, 0.99))
		e.rates = append(e.rates, float64(t.succeeded)/wall.Seconds())
		e.samples += len(lat)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	e.liveHeap = ms.HeapAlloc
	return e
}

// quantile reads the q-quantile of sorted nanosecond latencies, in µs.
func quantile(sorted []int64, q float64) float64 {
	i := min(len(sorted)-1, int(math.Ceil(q*float64(len(sorted))))-1)
	return float64(sorted[max(0, i)]) / 1e3
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics reduces the measurement to the eight end-to-end metrics.
func (e endToEnd) metrics(setup float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {setup, "s"},
		"loops_per_s":        {median(e.rates), "1/s"},
		"job_latency_p50_us": {median(e.p50s), "us"},
		"job_latency_p99_us": {median(e.p99s), "us"},
		"allocs_per_loop":    {float64(e.mallocs) / float64(max(1, e.attempted)), "count"},
		"live_heap_mb":       {float64(e.liveHeap) / (1 << 20), "MB"},
		"ii_over_mii":        {float64(e.sumII) / float64(max(1, e.sumMII)), "ratio"},
		"succeeded_frac":     {float64(e.succeeded) / float64(max(1, e.attempted)), "ratio"},
	}
}
