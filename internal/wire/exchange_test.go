package wire

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

// scriptedServer answers POST /batch with ticket "t1" (or status submit,
// when set) and GET /batch/t1/stream with the given lines, written and
// flushed one by one; after the last line it holds the connection open until
// the reader goes away when hold is set — writing bytes without a newline all
// the while when endless is — and closes it otherwise. It counts the DELETE
// /jobs/t1 it receives.
type scriptedServer struct {
	submit  int
	lines   []string
	hold    bool
	endless bool
	deletes atomic.Int32
}

func (s *scriptedServer) start(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /batch", func(w http.ResponseWriter, r *http.Request) {
		if s.submit != 0 {
			w.WriteHeader(s.submit)
			fmt.Fprintln(w, `{"error":"not now"}`)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"t1"}`)
	})
	mux.HandleFunc("GET /batch/t1/stream", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("loop") != "0" {
			t.Errorf("the stream was opened without %s", NoLoop)
		}
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
	})
	mux.HandleFunc("DELETE /jobs/t1", func(w http.ResponseWriter, r *http.Request) {
		s.deletes.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestStreamBatchEndings drives the streaming exchange against scripted
// servers through every way it can end: what it returns, which jobs it marked
// delivered, what it handed to yield, and whether it cancelled the ticket —
// which it does whenever nobody will read the ticket to its done frame, except
// on a cut, where the reader decides.
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

	cases := []struct {
		name    string
		srv     *scriptedServer
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
	}{
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := tc.srv.start(t)
			batch := tc.jobs
			if batch == nil {
				batch = jobs
			}
			ep := Endpoint{Base: ts.URL, HC: ts.Client(), Timeout: cmp.Or(tc.timeout, time.Minute)}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			delivered := make([]bool, len(batch))
			calls, unproven := 0, 0
			id, err := ep.Stream(ctx, batch, false, delivered,
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
			if got := tc.srv.deletes.Load(); got != tc.wantDeletes {
				t.Fatalf("the server saw %d DELETE /jobs/t1, want %d", got, tc.wantDeletes)
			}
		})
	}
}
