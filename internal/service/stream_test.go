package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// loopGateStore is a driver.Store whose Load blocks for selected loops until
// released: a deterministic way to hold one job of a batch open while the
// rest complete, so streaming tests never race the compiler.
type loopGateStore struct {
	hold  map[string]chan struct{} // loop name -> release gate
	first chan string              // receives the loop name when a gated Load begins
}

func newLoopGateStore(loops ...string) *loopGateStore {
	g := &loopGateStore{hold: map[string]chan struct{}{}, first: make(chan string, len(loops))}
	for _, l := range loops {
		g.hold[l] = make(chan struct{})
	}
	return g
}

func (g *loopGateStore) release(loop string) { close(g.hold[loop]) }

func (g *loopGateStore) Load(j driver.Job) (*pipeline.Result, error, bool) {
	if ch, ok := g.hold[j.Graph.Name]; ok {
		g.first <- j.Graph.Name
		<-ch
	}
	return nil, nil, false
}

func (g *loopGateStore) Save(driver.Job, *pipeline.Result, error) {}

// TestWatchStreamsIncrementally: with the last job of a batch gated shut,
// a watcher must still receive every earlier outcome — proof the events
// flow per job, not per batch.
func TestWatchStreamsIncrementally(t *testing.T) {
	jobs := testJobs(t, "tomcatv", 4)
	last := jobs[len(jobs)-1].Graph.Name
	gate := newLoopGateStore(last)
	s := New(Config{Workers: 1, Store: gate})
	defer s.Shutdown(context.Background())

	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	events, ok := s.Watch(context.Background(), id)
	if !ok {
		t.Fatalf("watch %s: unknown ticket", id)
	}

	var got []Event
	for ev := range events {
		got = append(got, ev)
		if len(got) == len(jobs)-1 {
			// Every ungated job has streamed; the batch must still be
			// running, held open by the gated one.
			if st, _ := s.Job(id); st.State != StateRunning {
				t.Fatalf("state %v with the last job gated, want running", st.State)
			}
			gate.release(last)
		}
	}
	if len(got) != len(jobs) {
		t.Fatalf("watched %d events for %d jobs", len(got), len(jobs))
	}
	seen := map[int]bool{}
	for _, ev := range got {
		if seen[ev.Index] {
			t.Fatalf("index %d streamed twice", ev.Index)
		}
		seen[ev.Index] = true
		if ev.Outcome.Err != nil {
			t.Fatalf("job %d: %v", ev.Index, ev.Outcome.Err)
		}
	}

	// A watcher arriving after completion replays the full log and ends.
	replay, ok := s.Watch(context.Background(), id)
	if !ok {
		t.Fatal("finished ticket no longer watchable")
	}
	n := 0
	for range replay {
		n++
	}
	if n != len(jobs) {
		t.Fatalf("late watcher replayed %d events, want %d", n, len(jobs))
	}
}

// TestBatchStreamEndpoint: the NDJSON endpoint delivers hello → incremental
// outcome frames → done, with the first outcomes readable while the server
// is still compiling the batch.
func TestBatchStreamEndpoint(t *testing.T) {
	jobs := testJobs(t, "hydro2d", 5)
	last := jobs[len(jobs)-1].Graph.Name
	gate := newLoopGateStore(last)
	s := New(Config{Workers: 1, Store: gate})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/batch/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream answered %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var frames []wire.Frame
	outcomes := 0
	for sc.Scan() {
		var f wire.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
		if f.Type == wire.FrameOutcome {
			outcomes++
			if outcomes == len(jobs)-1 {
				// Read mid-batch: the ticket is verifiably still running
				// when these frames arrive — delivery is incremental.
				if st, _ := s.Job(id); st.State != StateRunning {
					t.Fatalf("state %v after %d streamed outcomes, want running", st.State, outcomes)
				}
				gate.release(last)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(frames) < 3 {
		t.Fatalf("stream carried %d frames", len(frames))
	}
	if h := frames[0]; h.Type != wire.FrameHello || h.Schema != wire.StreamSchemaVersion || h.Total != len(jobs) || h.ID != id {
		t.Fatalf("hello frame %+v", frames[0])
	}
	if outcomes != len(jobs) {
		t.Fatalf("%d outcome frames for %d jobs", outcomes, len(jobs))
	}
	if d := frames[len(frames)-1]; d.Type != wire.FrameDone || d.State != wire.StateDone || d.Error != "" {
		t.Fatalf("done frame %+v", d)
	}
}

// TestBatchStreamUnknownTicket: streaming a ticket that does not exist is
// a plain 404, not a hanging stream.
func TestBatchStreamUnknownTicket(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/batch/job-404/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown ticket answered %s", resp.Status)
	}
}

// TestBatchStreamCanceledTicket: cancelling mid-stream ends the stream
// with a canceled done frame; outcomes that finished stay streamed.
func TestBatchStreamCanceledTicket(t *testing.T) {
	jobs := testJobs(t, "mgrid", 4)
	last := jobs[len(jobs)-1].Graph.Name
	gate := newLoopGateStore(last)
	s := New(Config{Workers: 1, Store: gate})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/batch/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	okFrames, cancelledFrames := 0, 0
	released := false
	var doneState string
	for sc.Scan() {
		var f wire.Frame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case wire.FrameOutcome:
			if f.Outcome.Error == "" {
				okFrames++
			} else {
				cancelledFrames++
			}
			if okFrames == len(jobs)-1 && !released {
				released = true
				if !s.Cancel(id) {
					t.Fatal("cancel failed")
				}
				gate.release(last)
			}
		case wire.FrameDone:
			doneState = f.State
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if doneState != wire.StateCanceled {
		t.Fatalf("done state %q, want canceled", doneState)
	}
	if okFrames < len(jobs)-1 {
		t.Fatalf("only %d successful outcomes streamed before the cancel", okFrames)
	}
	_ = cancelledFrames // the gated job may finish or cancel depending on timing; both are valid
}

// TestWatchContextEndsEarly: a watcher whose own context dies stops
// without waiting for the ticket.
func TestWatchContextEndsEarly(t *testing.T) {
	jobs := testJobs(t, "tomcatv", 2)
	gate := newLoopGateStore(jobs[0].Graph.Name)
	s := New(Config{Workers: 1, Store: gate})
	defer s.Shutdown(context.Background())

	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	events, ok := s.Watch(ctx, id)
	if !ok {
		t.Fatal("unknown ticket")
	}
	finished := make(chan int, 1)
	go func() {
		n := 0
		for range events {
			n++
		}
		finished <- n
	}()
	cancel()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("watcher did not stop when its context died")
	}
	gate.release(jobs[0].Graph.Name)
	waitDone(t, s, id)
}

// streamFrames fetches a finished ticket's stream and returns its lines.
func streamFrames(t *testing.T, url string) [][]byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s answered %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("%s: the stream does not end in a newline", url)
	}
	return bytes.Split(body[:len(body)-1], []byte("\n"))
}

// TestLoopEchoIsTheReadersChoice: a foreign reader gets every result with
// its loop text, as always; a reader that holds the jobs asks with loop=0
// and gets none — on the stream, the poll answer and the blocking compile.
// Either way every stream frame is exactly one line.
func TestLoopEchoIsTheReadersChoice(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	jobs := testJobs(t, "hydro2d", 5)
	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)

	loops := func(outs []wire.Outcome) (with int) {
		for _, o := range outs {
			if o.Result == nil {
				t.Fatalf("outcome without a result: %+v", o)
			}
			if o.Result.Loop != "" {
				with++
			}
		}
		return with
	}
	for query, want := range map[string]int{"": len(jobs), "?loop=0": 0, "?loop=1": len(jobs)} {
		var outs []wire.Outcome
		for i, line := range streamFrames(t, ts.URL+"/batch/"+id+"/stream"+query) {
			var f wire.Frame
			if err := json.Unmarshal(line, &f); err != nil {
				t.Fatalf("stream%s line %d is not one frame: %v\n%s", query, i, err, line)
			}
			if f.Type == wire.FrameOutcome {
				outs = append(outs, *f.Outcome)
			}
		}
		if len(outs) != len(jobs) || loops(outs) != want {
			t.Errorf("stream%s: %d outcomes, %d with their loop; want %d and %d", query, len(outs), loops(outs), len(jobs), want)
		}
		var st wire.JobStatus
		if code := getJSON(t, ts.URL+"/jobs/"+id+query, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs%s answered %d", query, code)
		}
		if len(st.Outcomes) != len(jobs) || loops(st.Outcomes) != want {
			t.Errorf("GET /jobs%s: %d outcomes, %d with their loop; want %d and %d", query, len(st.Outcomes), loops(st.Outcomes), len(jobs), want)
		}
	}
	wj, err := wire.EncodeJob(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	for query, want := range map[string]int{"?wait=1": 1, "?wait=1&loop=0": 0} {
		var st wire.JobStatus
		if code := postJSON(t, ts.URL+"/compile"+query, wj, &st); code != http.StatusOK {
			t.Fatalf("POST /compile%s answered %d", query, code)
		}
		if len(st.Outcomes) != 1 || loops(st.Outcomes) != want {
			t.Errorf("POST /compile%s: %d outcomes, %d with their loop; want 1 and %d", query, len(st.Outcomes), loops(st.Outcomes), want)
		}
	}
}

// writeCounter is a ResponseWriter that records how the stream handler
// uses the connection.
type writeCounter struct {
	header  http.Header
	writes  [][]byte
	flushes int
	// flushedAt[i] is how many writes had been made at flush i.
	flushedAt []int
}

func (w *writeCounter) Header() http.Header { return w.header }
func (w *writeCounter) WriteHeader(int)     {}
func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}
func (w *writeCounter) Flush() {
	w.flushes++
	w.flushedAt = append(w.flushedAt, len(w.writes))
}

// TestStreamWritesAFramePerWriteAndFlushesPerBacklog: each frame leaves in
// one Write (tests that cut the stream count Writes as frames), while the
// connection is flushed once per drained backlog — after the hello, before
// every wait, after the done — not once per frame.
func TestStreamWritesAFramePerWriteAndFlushesPerBacklog(t *testing.T) {
	jobs := testJobs(t, "hydro2d", 5)
	last := jobs[len(jobs)-1].Graph.Name
	gate := newLoopGateStore(last)
	s := New(Config{Workers: 1, Store: gate})
	defer s.Shutdown(context.Background())
	id, err := s.Submit(jobs, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Let the first four finish, so the handler finds them as one backlog;
	// the fifth is held until the handler has drained it and is waiting.
	for {
		tk, _ := s.lookup(id)
		tk.mu.Lock()
		n := len(tk.events)
		tk.mu.Unlock()
		if n == len(jobs)-1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	w := &writeCounter{header: http.Header{}}
	released := false
	req := httptest.NewRequest(http.MethodGet, "/batch/"+id+"/stream?loop=0", nil)
	req.SetPathValue("id", id)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handleBatchStream(w, req)
	}()
	// The handler flushes before it waits: poll for that flush, then let
	// the last job go. (w is only read here after the handler blocked or
	// returned; the channel and the gate order the accesses.)
	for !released {
		tk, _ := s.lookup(id)
		tk.mu.Lock()
		waiting := tk.update != nil
		tk.mu.Unlock()
		if waiting {
			gate.release(last)
			released = true
		}
		time.Sleep(time.Millisecond)
	}
	<-done

	if want := len(jobs) + 2; len(w.writes) != want {
		t.Fatalf("%d Writes for %d frames", len(w.writes), want)
	}
	for i, p := range w.writes {
		if bytes.Count(p, []byte("\n")) != 1 || p[len(p)-1] != '\n' {
			t.Fatalf("Write %d is not exactly one line: %q", i, p)
		}
		var f wire.Frame
		if err := json.Unmarshal(p, &f); err != nil {
			t.Fatalf("Write %d is not a frame: %v", i, err)
		}
	}
	// hello | four outcomes (one backlog) | the fifth | done — where the
	// fifth and the done share a flush when the ticket had already retired
	// by the time the handler looked again.
	if f := w.flushedAt; !slices.Equal(f, []int{1, 5, 6, 7}) && !slices.Equal(f, []int{1, 5, 7}) {
		t.Fatalf("flushed after %v writes, want [1 5 6 7] or [1 5 7]", f)
	}
}
