package wire

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// scriptedServer answers POST /batch (or, when ticketOnly, GET
// /batch/t1/stream after a POST answered with ticket "t1", as a server that
// predates the streamed answer does) with the given lines, written and
// flushed one by one — or refuses the POST with status submit, when set, and
// the GET with the 404 of a forgotten ticket, when forgot is. After the last
// line it holds the connection open until the reader goes away when hold is
// set — writing bytes without a newline all the while when endless is — and
// closes it otherwise. It counts the DELETE /jobs/t1 it receives, and fails
// the test on any other request.
type scriptedServer struct {
	submit     int
	ticketOnly bool
	forgot     bool
	lines      []string
	hold       bool
	endless    bool
	deletes    atomic.Int32
}

func (s *scriptedServer) start(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		// Read to the end, as the service does: only then does the server
		// notice a reader that hangs up on a held answer.
		io.Copy(io.Discard, r.Body)
		if s.submit != 0 {
			w.WriteHeader(s.submit)
			fmt.Fprintln(w, `{"error":"not now"}`)
			return
		}
		if s.ticketOnly {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintln(w, `{"id":"t1"}`)
			return
		}
		if r.Header.Get("Accept") != NDJSON {
			t.Errorf("the batch was posted with Accept %q", r.Header.Get("Accept"))
		}
		s.stream(t, w, r)
	})
	mux.HandleFunc("GET /batch/t1/stream", func(w http.ResponseWriter, r *http.Request) {
		if !s.ticketOnly {
			t.Error("the stream was opened by a second request")
		}
		if s.forgot {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"service: unknown ticket \"t1\""}`)
			return
		}
		s.stream(t, w, r)
	})
	mux.HandleFunc("DELETE /jobs/t1", func(w http.ResponseWriter, r *http.Request) {
		s.deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		t.Errorf("unexpected request %s %s", r.Method, r.URL)
		w.WriteHeader(http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// stream writes the script as the answer to r.
func (s *scriptedServer) stream(t *testing.T, w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("loop") != "0" {
		t.Errorf("the stream was asked for without %s", NoLoop)
	}
	w.Header().Set("Content-Type", NDJSON)
	for _, line := range s.lines {
		fmt.Fprint(w, line)
		w.(http.Flusher).Flush()
	}
	for chunk := bytes.Repeat([]byte("x"), 32<<10); s.endless; {
		if _, err := w.Write(chunk); err != nil {
			return
		}
	}
	if s.hold {
		<-r.Context().Done()
	}
}

// TestStreamBatchEndings drives the streaming exchange against scripted
// servers through every way it can end: what it returns, which jobs it marked
// delivered, what it handed to yield, and whether it cancelled the ticket —
// which it does whenever nobody will read the ticket to its done frame, except
// on a cut, where the reader decides. Every script runs twice: as the POST's
// own answer, and as the stream a ticket-only server opens on a second request.
func TestStreamBatchEndings(t *testing.T) {
	outs := compileSample(t, "mgrid", 3, machine.MustParse("4c2b2l64r"), pipeline.Options{Replicate: true})
	jobs := make([]driver.Job, len(outs))
	frames := make([]string, len(outs))
	for i, o := range outs {
		jobs[i] = o.Job
		frames[i] = string(AppendOutcomeFrame(nil, i, o, false))
	}
	lie, lieJob := lyingOutcome(t, func(wr *Result) { wr.II += 10 })
	hello := `{"type":"hello","schema":3,"id":"t1","total":3}` + "\n"
	// The line bound, within reach of a test; the endless server outruns it.
	defer func(was int) { maxFrameBytes = was }(maxFrameBytes)
	maxFrameBytes = 1 << 20
	done := `{"type":"done","state":"done"}` + "\n"

	cases := []endingCase{
		{
			name:          "complete",
			srv:           &scriptedServer{lines: []string{hello, frames[2], frames[0], frames[1], done}},
			wantErr:       func(err error) bool { return err == nil },
			wantDelivered: []bool{true, true, true},
		},
		{
			name: "done with jobs missing carries the batch error",
			srv:  &scriptedServer{lines: []string{hello, frames[1], `{"type":"done","state":"canceled","error":"service: shutting down"}` + "\n"}},
			wantErr: func(err error) bool {
				var re *RemoteError
				return errors.As(err, &re) && re.Msg == "service: shutting down"
			},
			wantDelivered: []bool{false, true, false},
		},
		{
			name: "done with jobs missing and no reason",
			srv:  &scriptedServer{lines: []string{hello, frames[0], done}},
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "finished without delivering")
			},
			wantDelivered: []bool{true, false, false},
		},
		{
			name:          "cut between frames",
			srv:           &scriptedServer{lines: []string{hello, frames[0], frames[1]}},
			wantErr:       func(err error) bool { return errors.Is(err, ErrStreamCut) },
			wantDelivered: []bool{true, true, false},
		},
		{
			name:          "cut inside a frame",
			srv:           &scriptedServer{lines: []string{hello, frames[0], frames[1][:len(frames[1])/2]}},
			wantErr:       func(err error) bool { return errors.Is(err, ErrStreamCut) },
			wantDelivered: []bool{true, false, false},
		},
		{
			name:          "a frame repeated",
			srv:           &scriptedServer{lines: []string{hello, frames[0], frames[0], done}},
			wantErr:       func(err error) bool { return err != nil && strings.Contains(err.Error(), "delivered job 0 twice") },
			wantDelivered: []bool{true, false, false},
			wantDeletes:   1,
		},
		{
			name: "hello for another batch size",
			srv:  &scriptedServer{lines: []string{`{"type":"hello","schema":3,"id":"t1","total":7}` + "\n", frames[0]}},
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "announces 7 jobs, submitted 3")
			},
			wantDelivered: []bool{false, false, false},
			wantDeletes:   1,
		},
		{
			name: "an outcome for a job the batch does not have",
			srv:  &scriptedServer{lines: []string{hello, string(AppendOutcomeFrame(nil, 3, outs[0], false)), done}},
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "job 3 of a 3-job batch")
			},
			wantDelivered: []bool{false, false, false},
			wantDeletes:   1,
		},
		{
			name:          "a frame of an unknown type",
			srv:           &scriptedServer{lines: []string{hello, frames[0], `{"type":"progress","index":1}` + "\n", done}},
			wantErr:       func(err error) bool { var ue *UnknownFrameError; return errors.As(err, &ue) && ue.Type == "progress" },
			wantDelivered: []bool{true, false, false},
			wantDeletes:   1,
		},
		{
			name:    "the server goes silent: the watchdog gives up and the ticket is cancelled",
			srv:     &scriptedServer{lines: []string{hello, frames[0]}, hold: true},
			timeout: 100 * time.Millisecond,
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "idle for 100ms") && !errors.Is(err, ErrStreamCut)
			},
			wantDelivered: []bool{true, false, false},
			wantDeletes:   1,
		},
		{
			name: "the server withholds the newline: refused at the line bound, not cut",
			srv:  &scriptedServer{lines: []string{hello, frames[0]}, endless: true},
			wantErr: func(err error) bool {
				return errors.Is(err, ErrFrameTooLong) && !errors.Is(err, ErrStreamCut)
			},
			wantDelivered: []bool{true, false, false},
			wantDeletes:   1,
		},
		{
			name:          "an outcome that fails its proof is handed over as such",
			srv:           &scriptedServer{lines: []string{`{"type":"hello","schema":3,"id":"t1","total":1}` + "\n", string(lie) + "\n", done}},
			jobs:          []driver.Job{lieJob},
			wantErr:       func(err error) bool { return err == nil },
			wantDelivered: []bool{true},
			wantUnproven:  1,
		},
		{
			name:          "the consumer stops: the ticket is cancelled",
			srv:           &scriptedServer{lines: []string{hello, frames[0], frames[1]}, hold: true},
			stopAt:        2,
			wantErr:       func(err error) bool { return errors.Is(err, ErrConsumerStopped) },
			wantDelivered: []bool{true, true, false},
			wantDeletes:   1,
		},
		{
			name:          "the context ends: the ticket is cancelled",
			srv:           &scriptedServer{lines: []string{hello, frames[0]}, hold: true},
			cancel:        true,
			wantErr:       func(err error) bool { return err != nil },
			wantDelivered: []bool{true, false, false},
			wantDeletes:   1,
		},
		{
			name: "submit refused",
			srv:  &scriptedServer{submit: http.StatusServiceUnavailable},
			wantErr: func(err error) bool {
				var se *StatusError
				return errors.As(err, &se) && se.Code == 503 && se.Msg == "not now"
			},
			wantDelivered: []bool{false, false, false},
			wantNoTicket:  true,
		},
		{
			name:   "the answer ends before its hello: no ticket to resume or cancel",
			srv:    &scriptedServer{lines: []string{hello[:len(hello)/2]}},
			direct: true,
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "ended before its hello") && !errors.Is(err, ErrStreamCut)
			},
			wantDelivered: []bool{false, false, false},
			wantNoTicket:  true,
		},
		{
			name:    "the server is silent before its hello: the watchdog gives up",
			srv:     &scriptedServer{hold: true},
			direct:  true,
			timeout: 100 * time.Millisecond,
			wantErr: func(err error) bool {
				return err != nil && strings.Contains(err.Error(), "idle for 100ms") && !errors.Is(err, ErrStreamCut)
			},
			wantDelivered: []bool{false, false, false},
			wantNoTicket:  true,
		},
	}
	for _, tc := range cases {
		for _, ticketOnly := range []bool{false, true} {
			if tc.direct && ticketOnly {
				continue
			}
			name := tc.name
			if ticketOnly {
				name += " (ticket-only server)"
			}
			srv := &scriptedServer{submit: tc.srv.submit, ticketOnly: ticketOnly, lines: tc.srv.lines, hold: tc.srv.hold, endless: tc.srv.endless}
			t.Run(name, func(t *testing.T) { tc.run(t, srv, jobs) })
		}
	}
}

// endingCase is one row of TestStreamBatchEndings; run plays it against srv.
type endingCase struct {
	name    string
	srv     *scriptedServer // the script; each mode starts a server of its own from it
	direct  bool            // an ending only a streamed POST answer has
	jobs    []driver.Job
	stopAt  int // yield refuses its stopAt-th call (0 = never)
	cancel  bool
	timeout time.Duration // the endpoint's (0 = a minute)
	// expectations
	wantErr       func(error) bool
	wantDelivered []bool
	wantUnproven  int
	wantDeletes   int32
	wantNoTicket  bool
}

func (tc endingCase) run(t *testing.T, srv *scriptedServer, jobs []driver.Job) {
	ts := srv.start(t)
	batch := tc.jobs
	if batch == nil {
		batch = jobs
	}
	ep := Endpoint{Base: ts.URL, HC: ts.Client(), Timeout: cmp.Or(tc.timeout, time.Minute)}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	delivered := make([]bool, len(batch))
	calls, unproven := 0, 0
	id, err := ep.Stream(ctx, batch, delivered,
		func(i int, out driver.Outcome, derr error) bool {
			calls++
			if out.Job.Graph != batch[i].Graph {
				t.Errorf("job %d: the outcome is not tagged with its job", i)
			}
			switch {
			case derr != nil:
				unproven++
				if out.Result != nil || out.Err != nil {
					t.Errorf("job %d: an unproven outcome carries an answer", i)
				}
			case out.Result == nil || out.Result.Loop != batch[i].Graph:
				t.Errorf("job %d: the result is not proven for the submitted graph", i)
			}
			if tc.cancel {
				cancel() // the server holds the stream open; only ctx ends it
			}
			return calls != tc.stopAt
		})
	if !tc.wantErr(err) {
		t.Fatalf("Stream returned %v", err)
	}
	if (id == "") != tc.wantNoTicket {
		t.Fatalf("Stream returned ticket %q", id)
	}
	for i, want := range tc.wantDelivered {
		if delivered[i] != want {
			t.Fatalf("delivered = %v, want %v", delivered, tc.wantDelivered)
		}
	}
	if unproven != tc.wantUnproven {
		t.Fatalf("%d outcomes handed over unproven, want %d", unproven, tc.wantUnproven)
	}
	if got := srv.deletes.Load(); got != tc.wantDeletes {
		t.Fatalf("the server saw %d DELETE /jobs/t1, want %d", got, tc.wantDeletes)
	}
}

// TestResumeSkipsTheReplayOnce drives Resume against scripted replays of a
// ticket whose first stream was cut after job 0: the replay of an outcome the
// reader holds is skipped once, the rest is delivered once, a frame repeated
// within the replay is still refused, and every ending short of the done
// frame — a second cut and a forgotten ticket included — cancels the ticket.
func TestResumeSkipsTheReplayOnce(t *testing.T) {
	outs := compileSample(t, "mgrid", 3, machine.MustParse("4c2b2l64r"), pipeline.Options{Replicate: true})
	jobs := make([]driver.Job, len(outs))
	frames := make([]string, len(outs))
	for i, o := range outs {
		jobs[i] = o.Job
		frames[i] = string(AppendOutcomeFrame(nil, i, o, false))
	}
	hello := `{"type":"hello","schema":3,"id":"t1","total":3}` + "\n"
	done := `{"type":"done","state":"done"}` + "\n"
	twice := func(i int) func(error) bool {
		return func(err error) bool {
			return err != nil && strings.Contains(err.Error(), fmt.Sprintf("delivered job %d twice", i))
		}
	}
	for _, tc := range []struct {
		name        string
		srv         *scriptedServer
		wantErr     func(error) bool
		wantYielded []int
		wantDeletes int32
	}{
		{
			name:        "the replay carries the whole batch",
			srv:         &scriptedServer{lines: []string{hello, frames[1], frames[0], frames[2], done}},
			wantErr:     func(err error) bool { return err == nil },
			wantYielded: []int{1, 2},
		},
		{
			name:        "a replayed outcome repeated",
			srv:         &scriptedServer{lines: []string{hello, frames[0], frames[1], frames[0], done}},
			wantErr:     twice(0),
			wantYielded: []int{1},
			wantDeletes: 1,
		},
		{
			name:        "a new outcome repeated",
			srv:         &scriptedServer{lines: []string{hello, frames[0], frames[2], frames[2], done}},
			wantErr:     twice(2),
			wantYielded: []int{2},
			wantDeletes: 1,
		},
		{
			name:        "cut again",
			srv:         &scriptedServer{lines: []string{hello, frames[0], frames[1]}},
			wantErr:     func(err error) bool { return errors.Is(err, ErrStreamCut) },
			wantYielded: []int{1},
			wantDeletes: 1,
		},
		{
			name: "the ticket is forgotten",
			srv:  &scriptedServer{forgot: true},
			wantErr: func(err error) bool {
				var se *StatusError
				return err != nil && !errors.As(err, &se) && strings.Contains(err.Error(), "stream answered 404")
			},
			wantDeletes: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.srv.ticketOnly = true // the GET is the only request Resume makes
			ts := tc.srv.start(t)
			ep := Endpoint{Base: ts.URL, HC: ts.Client(), Timeout: time.Minute}
			delivered := []bool{true, false, false}
			var yielded []int
			err := ep.Resume(context.Background(), "t1", jobs, delivered, func(i int, out driver.Outcome, derr error) bool {
				if derr != nil || out.Result == nil || out.Result.Loop != jobs[i].Graph {
					t.Errorf("job %d: not proven for the submitted graph (%v)", i, derr)
				}
				yielded = append(yielded, i)
				return true
			})
			if !tc.wantErr(err) {
				t.Fatalf("Resume returned %v", err)
			}
			if !slices.Equal(yielded, tc.wantYielded) {
				t.Fatalf("yielded %v, want %v", yielded, tc.wantYielded)
			}
			if got := tc.srv.deletes.Load(); got != tc.wantDeletes {
				t.Fatalf("the server saw %d DELETE /jobs/t1, want %d", got, tc.wantDeletes)
			}
		})
	}
}
