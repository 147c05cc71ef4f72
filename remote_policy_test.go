package clusched

// Client and cluster.HTTPNode run the same exchanges (wire.Endpoint); what a
// refusal means to the caller is the only thing they disagree on. One table,
// both policies, and what the fleet then does with the run.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"clusched/internal/cluster"
	"clusched/internal/service"
)

// What a refusingNode does in place of answering every POST with a status code.
const (
	forgetful = 0  // accepts, and has forgotten every ticket by the time its stream is asked for
	sound     = -1 // a plain service
)

// refusingNode starts a real service, except that every POST is answered
// with code and body (or see forgetful, sound). posts counts the POSTs it
// received.
func refusingNode(t *testing.T, code int, body string) (url string, posts *atomic.Int32) {
	t.Helper()
	s := service.New(service.Config{})
	h := s.Handler()
	posts = new(atomic.Int32)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost:
			posts.Add(1)
			if code > 0 {
				w.WriteHeader(code)
				fmt.Fprint(w, body)
				return
			}
		case code == forgetful && strings.HasSuffix(r.URL.Path, "/stream"):
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintln(w, `{"error":"service: unknown ticket"}`)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		s.Shutdown(context.Background())
	})
	return ts.URL, posts
}

// TestRefusalsDifferOnlyInPolicy answers a run and a single job with each
// refusal and checks what Client, HTTPNode and a two-node fleet make of it.
func TestRefusalsDifferOnlyInPolicy(t *testing.T) {
	jobs := conformanceJobs(t)
	want := referenceOutcomes(t, jobs)
	bad := NewLoop("bad")
	bad.Node("two words", OpIAdd) // no text form: the job cannot be put on the wire
	badGraph, err := bad.Build()
	if err != nil {
		t.Fatal(err)
	}
	unencodable := []CompileJob{jobs[0], {Graph: badGraph, Machine: jobs[0].Machine}}

	// status is the verdict both policies start from.
	status := func(err error) *cluster.StatusError {
		var se *cluster.StatusError
		errors.As(err, &se)
		return se
	}
	typed := func(code int, msg string) func(error) bool {
		return func(err error) bool {
			se := status(err)
			return se != nil && se.Code == code && se.Msg == msg && len(err.Error()) < 1<<10
		}
	}
	cases := []struct {
		name string
		code int // what the node answers every POST with, or forgetful, or sound
		body string
		jobs []CompileJob // the run (default: the conformance jobs)
		// client and node judge the error their policy makes of the refusal.
		client, node func(error) bool
		// elsewhere: the fleet takes the run to its other member; otherwise the
		// refusal is final for the run. noPost: the refusal never left.
		elsewhere, noPost bool
	}{
		{
			name: "429 with a hint", code: 429, body: `{"error":"service: queue full","retry_after_ms":1500}`,
			client: func(err error) bool {
				var full *QueueFullError
				return errors.As(err, &full) && full.RetryAfter == 1500*time.Millisecond
			},
			node: func(err error) bool {
				return typed(429, "service: queue full")(err) && status(err).RetryAfter == 1500*time.Millisecond
			},
			elsewhere: true,
		},
		{
			name: "503", code: 503, body: `{"error":"service: shutting down"}`,
			client: typed(503, "service: shutting down"), node: typed(503, "service: shutting down"),
			elsewhere: true,
		},
		{
			name: "400", code: 400, body: `{"error":"bad request"}`,
			client: typed(400, "bad request"), node: typed(400, "bad request"),
		},
		{
			name: "422", code: 422, body: `{"error":"unknown strategy"}`,
			client: typed(422, "unknown strategy"), node: typed(422, "unknown strategy"),
		},
		{
			name: "an error body of 1 MiB", code: 500, body: `{"error":"` + strings.Repeat("x", 1<<20) + `"}`,
			client: typed(500, ""), node: typed(500, ""),
			elsewhere: true,
		},
		{
			name: "an unencodable job", code: sound, jobs: unencodable, noPost: true,
			client: func(err error) bool { se := status(err); return se != nil && se.Code == 400 },
			node:   func(err error) bool { se := status(err); return se != nil && se.Code == 400 },
		},
		{
			// Every other 4xx is final; this one says the node lost the ticket
			// (restart, retention), not that the run is wrong.
			name: "404 on the stream of an accepted ticket", code: forgetful,
			client: func(err error) bool {
				return err != nil && status(err) == nil && strings.Contains(err.Error(), "stream answered 404: service: unknown ticket")
			},
			node: func(err error) bool {
				return err != nil && status(err) == nil && strings.Contains(err.Error(), "stream answered 404")
			},
			elsewhere: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			url, posts := refusingNode(t, tc.code, tc.body)
			run := tc.jobs
			if run == nil {
				run = jobs
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			c := NewRemote(url)
			node := cluster.NewHTTPNode(url, nil, time.Minute)
			for i, out := range c.Stream(ctx, run) {
				if !tc.client(out.Err) {
					t.Fatalf("Client.Stream, job %d: %v", i, out.Err)
				}
			}
			err := node.Stream(ctx, run, func(int, CompileOutcome) bool {
				t.Error("HTTPNode.Stream delivered an outcome")
				return true
			})
			if !tc.node(err) {
				t.Fatalf("HTTPNode.Stream: %v", err)
			}
			if tc.code != forgetful { // the unary exchange has no ticket to forget
				if _, err := c.Do(ctx, run[len(run)-1]); !tc.client(err) {
					t.Fatalf("Client.Do: %v", err)
				}
				if _, err := node.Do(ctx, run[len(run)-1]); !tc.node(err) {
					t.Fatalf("HTTPNode.Do: %v", err)
				}
			}
			if tc.noPost && posts.Load() != 0 {
				t.Fatalf("the node received %d POSTs for a job that cannot be encoded", posts.Load())
			}

			// The fleet: this node and a sound one. Bounded-load routing leaves
			// each of two nodes at least a third of the batch, so this node is
			// home to some run.
			peer, _ := refusingNode(t, sound, "")
			cl := NewCluster([]string{url, peer}, WithHedge(-1), WithHealthInterval(-1))
			defer cl.Close()
			outs, _ := Collect(ctx, cl, run)
			failed := 0
			for i, o := range outs {
				switch {
				case o.Err != nil:
					if failed++; tc.elsewhere || !tc.node(o.Err) {
						t.Fatalf("fleet, job %d: %v", i, o.Err)
					}
				case tc.jobs == nil && resultFingerprint(o.Result) != want[i]:
					t.Fatalf("fleet, job %d diverges from the local compilation", i)
				}
			}
			ejected := cl.FleetStats(ctx).Nodes[0].Ejections > 0
			if tc.elsewhere && !ejected {
				t.Fatal("the fleet never asked the refusing node")
			}
			if !tc.elsewhere && (failed == 0 || ejected) {
				t.Fatalf("%d jobs failed, node ejected: %v; want the refusal final for the runs it was home to, and the node kept", failed, ejected)
			}
		})
	}
}
