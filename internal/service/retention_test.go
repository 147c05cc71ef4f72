package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"clusched/internal/driver"
)

// retained counts the finished tickets a server still answers for and the
// jobs they hold.
func retained(s *Server) (tickets, jobs int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.doneOrder {
		tickets++
		jobs += len(s.tickets[id].jobs)
	}
	if jobs != s.doneJobs {
		panic(fmt.Sprintf("doneJobs says %d, the retained tickets hold %d", s.doneJobs, jobs))
	}
	return tickets, jobs
}

// TestRetentionIsBoundedInJobs: finished tickets are forgotten oldest first
// once they hold more than jobRetention jobs between them — the one bound
// there is, whatever the size of a ticket — and a forgotten ticket answers
// 404 on every endpoint that names one.
func TestRetentionIsBoundedInJobs(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	jobs := testJobs(t, "mgrid", 8)

	const tickets = 3000
	ids := make([]string, tickets)
	for i := range ids {
		id, err := s.Submit(jobs, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		waitDone(t, s, id)
	}
	nt, nj := retained(s)
	if nj > jobRetention || nt != jobRetention/len(jobs) {
		t.Fatalf("%d tickets holding %d jobs retained; want %d tickets, at most %d jobs", nt, nj, jobRetention/len(jobs), jobRetention)
	}
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for i, id := range ids {
		want := http.StatusNotFound
		if i >= tickets-nt {
			want = http.StatusOK
		}
		if got := status("/jobs/" + id); got != want {
			t.Fatalf("ticket %d of %d (%s): GET /jobs answered %d, want %d", i, tickets, id, got, want)
		}
		if i%97 == 0 || i >= tickets-nt-2 && i < tickets-nt+2 {
			if got := status("/batch/" + id + "/stream"); got != want {
				t.Fatalf("ticket %d (%s): GET stream answered %d, want %d", i, id, got, want)
			}
		}
	}
}

// TestRetentionKeepsTheNewestTicketWhateverItsSize: one batch larger than
// the whole job bound stays pollable — a stream cut at its end resumes over
// the poll path — until the next ticket retires; and unary tickets, one job
// each, are retained up to the same bound in jobs.
func TestRetentionKeepsTheNewestTicketWhateverItsSize(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	few := testJobs(t, "mgrid", 6)
	big := make([]driver.Job, 6000)
	for i := range big {
		big[i] = few[i%len(few)]
	}
	small, err := s.Submit(few, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, small)
	id, err := s.Submit(big, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, id)
	if st, ok := s.Job(id); !ok || len(st.Outcomes) != len(big) {
		t.Fatalf("the 6000-job ticket is not pollable after it retired (found %v)", ok)
	}
	if _, ok := s.Job(small); ok {
		t.Fatal("the older ticket outlived a newer one that alone exceeds the job bound")
	}
	next, err := s.Submit(few, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, next)
	if _, ok := s.Job(id); ok {
		t.Fatal("the 6000-job ticket is still retained after the next ticket retired")
	}
	if nt, nj := retained(s); nt != 1 || nj != len(few) {
		t.Fatalf("%d tickets / %d jobs retained, want the last one alone", nt, nj)
	}

	one := few[:1]
	for i := 0; i < jobRetention+76; i++ {
		id, err := s.Submit(one, SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, id)
	}
	if nt, nj := retained(s); nt != jobRetention || nj != jobRetention {
		t.Fatalf("%d unary tickets holding %d jobs retained, want %d of each", nt, nj, jobRetention)
	}
}
