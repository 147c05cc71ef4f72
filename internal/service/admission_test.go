package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// badLoop is loop text the parser refuses, with badLoopErr.
const (
	badLoop    = "loop x\nnode a bogus\nend\n"
	badLoopErr = `ddg: line 2: ddg: unknown op kind "bogus"`
)

// refusal is the answer to a request refused with msg.
func refusal(msg string) string {
	b, _ := json.Marshal(wire.ErrorResponse{Error: msg})
	return string(b) + "\n"
}

// refusalBatch is a 4-job tomcatv batch with edit applied to its jobs,
// marshalled as encoding/json does, jobs first.
func refusalBatch(t *testing.T, edit func([]wire.Job)) string {
	t.Helper()
	jobs := encodeBatch(t, "tomcatv", 4)
	if edit != nil {
		edit(jobs)
	}
	return string(mustMarshal(t, wire.SubmitRequest{Jobs: jobs}))
}

// answer posts body to POST /batch in-process and returns the status and
// the answer body.
func answer(s *Server, body string) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// TestBatchRefusalsAreUnchanged: POST /batch admits a batch while it decodes
// it, but answers every body as a decode of the whole body first would —
// the status always, and for a body with one defect the answer byte for
// byte. Where a body has two defects the precedence is that order too: a
// body encoding/json refuses is refused as malformed whatever its jobs
// hold, then the first job that does not decode, then an out-of-range
// timeout_ms. A refused batch leaves no ticket and no ticket count behind
// (the cache's counters may move: jobs admitted before a defect may have
// compiled), and a body that is malformed is 400 on a full queue or a
// draining server too.
func TestBatchRefusalsAreUnchanged(t *testing.T) {
	good := refusalBatch(t, nil)
	_, unknown := pipeline.LookupStrategy("nope") // its text lists the registry
	cases := []struct {
		name, body string
		code       int
		want       string // the whole answer, when the body has one defect
	}{
		{"bad loop at job 0", refusalBatch(t, func(j []wire.Job) { j[0].Loop = badLoop }), 400,
			refusal("job 0: " + badLoopErr)},
		{"bad loop at job 2", refusalBatch(t, func(j []wire.Job) { j[2].Loop = badLoop }), 400,
			refusal("job 2: " + badLoopErr)},
		{"bad loop at the last job", refusalBatch(t, func(j []wire.Job) { j[3].Loop = badLoop }), 400,
			refusal("job 3: " + badLoopErr)},
		{"unknown strategy at job 1", refusalBatch(t, func(j []wire.Job) { j[1].Options.Strategy = "nope" }), 400,
			refusal("job 1: " + unknown.Error())},
		{"schema too new at job 2", refusalBatch(t, func(j []wire.Job) { j[2].Schema = 99 }), 400,
			refusal("job 2: wire: schema version 99 is newer than supported 2")},
		{"timeout_ms out of range", strings.TrimSuffix(good, "}") + `,"timeout_ms":-1}`, 400,
			refusal("bad batch: timeout_ms -1 is outside [0, 9223372036854]")},
		{"escaped key the walk declines", strings.Replace(good, `"loop"`, `"lo\u006fp"`, 1), 202, ""},
		{"escaped key, bad loop at job 1", strings.Replace(refusalBatch(t, func(j []wire.Job) { j[1].Loop = badLoop }), `"loop"`, `"lo\u006fp"`, 1), 400,
			refusal("job 1: " + badLoopErr)},
		{"valid jobs, then a truncated one", good[:strings.LastIndex(good, `{"schema"`)+20], 400,
			refusal("bad batch: unexpected EOF")},
		{"valid jobs, then a bad literal", strings.TrimSuffix(good, "}") + `,"trace":tru}`, 400,
			refusal("bad batch: invalid character '}' in literal true (expecting 'e')")},
		{"no jobs", `{"jobs":[]}`, 400, refusal("service: empty batch")},
		{"jobs null", `{"jobs":null,"timeout_ms":5}`, 400, refusal("service: empty batch")},
		// Two defects each.
		{"bad loop at job 1, then a bad literal", strings.TrimSuffix(refusalBatch(t, func(j []wire.Job) { j[1].Loop = badLoop }), "}") + `,"trace":tru}`, 400, ""},
		{"bad loop at job 3, timeout_ms out of range", strings.TrimSuffix(refusalBatch(t, func(j []wire.Job) { j[3].Loop = badLoop }), "}") + `,"timeout_ms":-1}`, 400, ""},
		{"unknown strategy at job 0, schema too new at job 2", refusalBatch(t, func(j []wire.Job) { j[0].Options.Strategy = "nope"; j[2].Schema = 99 }), 400, ""},
	}
	// The precedence the doc comment states, pinned on the two-defect rows.
	precedence := map[string]string{
		"bad loop at job 1, then a bad literal":              "bad batch: invalid character",
		"bad loop at job 3, timeout_ms out of range":         "job 3: ",
		"unknown strategy at job 0, schema too new at job 2": "job 0: ",
	}

	s := New(Config{Workers: 2})
	defer s.Shutdown(context.Background())
	submittedJobs := func() float64 {
		var metrics bytes.Buffer
		s.registry.WritePrometheus(&metrics)
		if !strings.Contains(metrics.String(), "clusched_jobs_submitted_total{") {
			return 0
		}
		return promValue(t, metrics.String(), `clusched_jobs_submitted_total{strategy="paper"}`)
	}
	for _, c := range cases {
		before, jobsBefore := s.Stats(), submittedJobs()
		s.mu.Lock()
		seq := s.seq
		s.mu.Unlock()
		code, body := answer(s, c.body)
		if code != c.code || (c.want != "" && body != c.want) {
			t.Errorf("%s: %d %q, want %d %q", c.name, code, body, c.code, c.want)
		}
		if p, ok := precedence[c.name]; ok && !strings.Contains(body, `"error":"`+p) {
			t.Errorf("%s: %q, want the error to start %q", c.name, body, p)
		}
		if code == http.StatusAccepted {
			continue
		}
		s.mu.Lock()
		for n := seq + 1; n <= s.seq; n++ {
			if _, ok := s.tickets[fmt.Sprintf("job-%d", n)]; ok {
				t.Errorf("%s: refused, yet ticket job-%d exists", c.name, n)
			}
		}
		s.mu.Unlock()
		if after := s.Stats(); after.Submitted != before.Submitted || after.Rejected != before.Rejected || after.Canceled != before.Canceled {
			t.Errorf("%s: refused, yet /stats went from %+v to %+v", c.name, before, after)
		}
		if n := submittedJobs(); n != jobsBefore {
			t.Errorf("%s: refused, yet clusched_jobs_submitted_total went from %g to %g", c.name, jobsBefore, n)
		}
	}

	// A full queue and a draining server: a malformed body is still 400,
	// counted nowhere; a well-formed one is refused as before, and counted.
	malformed := refusalBatch(t, func(j []wire.Job) { j[2].Loop = badLoop })
	gate := make(chan struct{})
	full := New(Config{QueueDepth: 1, Store: &gateStore{gate: gate}})
	defer full.Shutdown(context.Background())
	defer close(gate)
	if _, err := full.Submit(testJobs(t, "mgrid", 1), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	draining := New(Config{})
	draining.Shutdown(context.Background())
	for _, c := range []struct {
		name string
		s    *Server
		busy int
	}{{"full queue", full, http.StatusTooManyRequests}, {"draining", draining, http.StatusServiceUnavailable}} {
		if code, body := answer(c.s, malformed); code != http.StatusBadRequest || body != refusal("job 2: "+badLoopErr) {
			t.Errorf("%s, malformed body: %d %q, want the 400 it gets on an idle server", c.name, code, body)
		}
		if st := c.s.Stats(); st.Rejected != 0 {
			t.Errorf("%s: a malformed body was counted rejected", c.name)
		}
		if code, _ := answer(c.s, good); code != c.busy {
			t.Errorf("%s, well-formed body: %d, want %d", c.name, code, c.busy)
		}
		if st := c.s.Stats(); st.Rejected != 1 {
			t.Errorf("%s: %d rejections counted, want 1", c.name, st.Rejected)
		}
	}
	if code, body := answer(draining, good); code != http.StatusServiceUnavailable || body != refusal("service: shutting down") {
		t.Errorf("draining: %d %q", code, body)
	}
}

// TestBatchOfCommasReservesNothing: the envelope walk counts a batch's jobs
// by the commas between them, and a comma costs one byte. A valid job
// followed by a million commas is refused as encoding/json refuses it,
// without a ticket and without reserving anything per counted job.
func TestBatchOfCommasReservesNothing(t *testing.T) {
	one := string(mustMarshal(t, wire.SubmitRequest{Jobs: encodeBatch(t, "tomcatv", 1)}))
	end := strings.LastIndex(one, "]")
	body := one[:end] + strings.Repeat(",", 1<<20) + one[end:]
	var req wire.SubmitRequest
	err := wire.DecodeSubmitRequest([]byte(body), &req)
	if err == nil {
		t.Fatal("encoding/json accepted a run of commas")
	}

	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	code, answered := answer(s, body)
	runtime.ReadMemStats(&after)
	if want := refusal("bad batch: " + err.Error()); code != http.StatusBadRequest || answered != want {
		t.Errorf("%d %q, want 400 %q", code, answered, want)
	}
	// Reading the body and encoding/json's pass over it take a few copies
	// of it; one counted job's reservation alone is over 150 bytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, 16*uint64(len(body)); got > limit {
		t.Errorf("refusing a %d-byte body allocated %d bytes, want at most %d", len(body), got, limit)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seq != 0 {
		t.Errorf("refused body queued %d tickets", s.seq)
	}
}

// probeStrategy is moddist behind a pass that calls the probe's hook with
// the loop each II attempt compiles: registered once per test binary (the
// registry has no way out), its hook set per test.
const probeStrategy = "test-admission-probe"

var (
	registerProbe sync.Once
	probeMu       sync.Mutex
	probeHook     func(loop string)
)

type probePass struct{}

func (probePass) Name() string { return "probe" }

func (probePass) Run(c *pipeline.Context) error {
	probeMu.Lock()
	hook := probeHook
	probeMu.Unlock()
	if hook != nil {
		hook(c.Graph.Name)
	}
	return nil
}

// probedBatch registers probeStrategy and returns an n-job batch compiled
// under it and the name of its first loop.
func probedBatch(t *testing.T, n int) (body []byte, first string) {
	t.Helper()
	registerProbe.Do(func() {
		pipeline.RegisterStrategy(pipeline.Strategy{
			Name:        probeStrategy,
			Description: "moddist behind a test probe",
			Chain:       []pipeline.Pass{probePass{}, pipeline.ModDistPass{}, pipeline.SchedulePass{}, pipeline.VerifyPass{}},
		})
	})
	jobs := testJobs(t, "tomcatv", n)
	wjs := make([]wire.Job, len(jobs))
	for i, j := range jobs {
		j.Opts = pipeline.Options{Strategy: probeStrategy}
		wj, err := wire.EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		wjs[i] = wj
	}
	return mustMarshal(t, wire.SubmitRequest{Jobs: wjs}), jobs[0].Graph.Name
}

// setProbe makes hook the probe's for the rest of the test.
func setProbe(t *testing.T, hook func(loop string)) {
	probeMu.Lock()
	probeHook = hook
	probeMu.Unlock()
	t.Cleanup(func() {
		probeMu.Lock()
		probeHook = nil
		probeMu.Unlock()
	})
}

// clientCtx is a request context whose Err — the admission loop asks it
// between jobs whether the client is still there — first waits for hold:
// a client whose request cannot be admitted past its first job until the
// test says so.
type clientCtx struct {
	context.Context
	hold <-chan struct{}
}

func (c *clientCtx) Err() error {
	<-c.hold
	return c.Context.Err()
}

// ticketOf returns the one ticket the server holds, or nil.
func ticketOf(s *Server) *ticket {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, tk := range s.tickets {
		if len(s.tickets) == 1 {
			return tk
		}
	}
	return nil
}

// onlyTicket is ticketOf on the test's goroutine.
func onlyTicket(t *testing.T, s *Server) *ticket {
	t.Helper()
	tk := ticketOf(s)
	if tk == nil {
		t.Fatal("the server does not hold exactly one ticket")
	}
	return tk
}

// TestAdmissionOverlapsTheEngine: the engine starts compiling a batch's
// first job while the batch is still being admitted. The request cannot be
// admitted past its first job until that job's compilation has begun, and
// when it begins the last job is not admitted yet.
func TestAdmissionOverlapsTheEngine(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New(Config{Workers: workers})
			defer s.Shutdown(context.Background())
			began := make(chan struct{})
			var once sync.Once
			var lastAdmitted bool
			body, first := probedBatch(t, n)
			setProbe(t, func(loop string) {
				if loop != first {
					return
				}
				once.Do(func() {
					if tk := ticketOf(s); tk == nil {
						t.Error("job 0 compiles with no ticket, or more than one, on the server")
					} else {
						lastAdmitted = tk.jobs[n-1].Graph != nil
					}
					close(began)
				})
			})
			ctx := &clientCtx{Context: context.Background(), hold: began}
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusAccepted {
				t.Fatalf("POST /batch: %d %s", rec.Code, rec.Body)
			}
			<-began
			if lastAdmitted {
				t.Error("job 0's compilation began after the whole batch was admitted")
			}
			st := waitDone(t, s, onlyTicket(t, s).id)
			if st.State != StateDone || st.Err != nil || len(st.Outcomes) != n {
				t.Fatalf("ticket ended %v (%v) with %d outcomes", st.State, st.Err, len(st.Outcomes))
			}
			for i, o := range st.Outcomes {
				if o.Result == nil || o.Job.Graph == nil || o.Job.Opts.Strategy != probeStrategy {
					t.Fatalf("outcome %d: %+v", i, o)
				}
			}
		})
	}
}

// TestAdmissionLabelsEachJob: a batch's loops are labeled by the handler
// as it admits them, not by the compile worker. The
// handler decodes job 1 only once job 0's compilation has begun, and the
// worker is held inside job 0 until the whole batch is admitted: every
// other job's graph — parsed by the handler, never touched by the worker —
// already holds its labeling in the memo CanonicalForm fills (its Perm is
// set).
func TestAdmissionLabelsEachJob(t *testing.T) {
	const n = 6
	s := New(Config{Workers: 1, CacheSize: -1})
	defer s.Shutdown(context.Background())
	began, admitted := make(chan struct{}), make(chan struct{})
	var once sync.Once
	body, first := probedBatch(t, n)
	setProbe(t, func(loop string) {
		if loop == first {
			once.Do(func() {
				close(began)
				<-admitted
			})
		}
	})
	ctx := &clientCtx{Context: context.Background(), hold: began}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, "/batch", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /batch: %d %s", rec.Code, rec.Body)
	}
	tk := onlyTicket(t, s)
	for i, j := range tk.jobs[1:] {
		if reflect.ValueOf(j.Graph).Elem().FieldByName("canon").FieldByName("Perm").IsNil() {
			t.Errorf("job %d (%s): its labeling was left to the worker", i+1, j.Graph.Name)
		}
	}
	close(admitted)
	if st := waitDone(t, s, tk.id); st.State != StateDone || st.Err != nil {
		t.Fatalf("ticket ended %v (%v)", st.State, st.Err)
	}
}

// TestClientGoneMidAdmissionCancelsItsTicket: a client that goes away
// while its batch is being admitted — after the first job's compilation
// began — leaves a cancelled ticket, an idle engine and no goroutine of
// its own: nothing waits on the admission of jobs nobody will read.
func TestClientGoneMidAdmissionCancelsItsTicket(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := New(Config{Workers: workers})
			began := make(chan struct{})
			client, hangUp := context.WithCancel(context.Background())
			var once sync.Once
			body, first := probedBatch(t, n)
			setProbe(t, func(loop string) {
				if loop == first {
					once.Do(func() {
						hangUp()
						close(began)
					})
				}
			})
			ctx := &clientCtx{Context: client, hold: began}
			req := httptest.NewRequestWithContext(ctx, http.MethodPost, "/batch", bytes.NewReader(body))
			req.Header.Set("Accept", wire.NDJSON)
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)

			tk := onlyTicket(t, s)
			if st := waitDone(t, s, tk.id); st.State != StateCanceled {
				t.Fatalf("the ticket of a client gone mid-admission ended %v, want canceled", st.State)
			}
			if running, budget := s.compiler.InFlightCompiles(); running != 0 || budget != max(workers, runtime.GOMAXPROCS(0)) {
				t.Errorf("InFlightCompiles() = (%d, %d) after the ticket ended", running, budget)
			}
			if st := s.Stats(); st.InFlight != 0 || st.Submitted != 1 || st.Canceled != 1 {
				t.Errorf("/stats after the ticket ended: %+v", st)
			}
			// Shutdown waits for the ticket's goroutine: it returns only if
			// nothing is left waiting on the batch's admission.
			if err := s.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
