package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
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

// TestDiskCacheLyingEntryIsMiss: an entry whose schedule claims an II no
// search could reach, or whose headline contradicts its schedule, is a miss
// that gets discarded — it used to end the process (out of memory while
// sizing the proof) or load with the lie intact.
func TestDiskCacheLyingEntryIsMiss(t *testing.T) {
	j := testJobs(t, "mgrid", 1)[0]
	res, err := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	lies := map[string]func(wr *wire.Result){
		"ii 1<<40":            func(wr *wire.Result) { wr.II, wr.Schedule.II = 1<<40, 1<<40 },
		"ii 1<<62":            func(wr *wire.Result) { wr.II, wr.Schedule.II = 1<<62, 1<<62 },
		"ii 1<<40 and max_ii": func(wr *wire.Result) { wr.II, wr.Schedule.II, wr.Options.MaxII = 1<<40, 1<<40, 1<<40 },
		"headline ii":         func(wr *wire.Result) { wr.II = 17 },
		"negative mii":        func(wr *wire.Result) { wr.MII = -3 },
	}
	for name, lie := range lies {
		dir := t.TempDir()
		cache, err := OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		cache.Save(j, res, nil)
		cache.Close()
		cache, err = OpenDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cache.Load(j); !ok {
			t.Fatal("the honest entry did not load")
		}
		path := cache.path(driver.JobKey(j))
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var so storedOutcome
		if err := json.Unmarshal(blob, &so); err != nil {
			t.Fatal(err)
		}
		lie(so.Result)
		if blob, err = json.Marshal(&so); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cache.Load(j); ok {
			t.Errorf("%s: the lying entry loaded", name)
		}
		if cache.Len() != 0 {
			t.Errorf("%s: the lying entry was not discarded", name)
		}
		cache.Close()
	}
}

// TestDiskCacheIgnoresStaleKeyVersion: a directory written by a binary one
// JobKey version back. The old entry sits under the hash of its own key,
// where no current key ever looks: the job is a plain miss — not an error,
// nothing counted — and the entry is left alone (the operator empties the
// directory; the cache never scans it).
func TestDiskCacheIgnoresStaleKeyVersion(t *testing.T) {
	j := testJobs(t, "mgrid", 1)[0]
	res, err := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Save(j, res, nil)
	cache.Close()

	// Re-key the entry the way the previous version would have written it.
	cache, err = OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	key := driver.JobKey(j)
	stale, ok := strings.CutPrefix(key, "v4|")
	if !ok {
		t.Fatalf("JobKey %q is not v4: move this test along with the version", key)
	}
	stale = "v3|" + stale
	blob, err := os.ReadFile(cache.path(key))
	if err != nil {
		t.Fatal(err)
	}
	var so storedOutcome
	if err := json.Unmarshal(blob, &so); err != nil {
		t.Fatal(err)
	}
	so.Key = stale
	if blob, err = json.Marshal(&so); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(stale), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(cache.path(key)); err != nil {
		t.Fatal(err)
	}

	if res, cerr, ok := cache.Load(j); ok || res != nil || cerr != nil {
		t.Fatalf("Load = (%v, %v, %v) on a directory holding only a v3 entry, want a clean miss", res, cerr, ok)
	}
	if dropped, errs := cache.Dropped(); dropped != 0 || errs != 0 {
		t.Errorf("the stale entry was counted: dropped %d, errs %d", dropped, errs)
	}
	if after, err := os.ReadFile(cache.path(stale)); err != nil || !bytes.Equal(after, blob) {
		t.Errorf("the stale entry was touched (read error: %v)", err)
	}
	if cache.Len() != 1 {
		t.Errorf("%d entries on disk, want the stale one alone", cache.Len())
	}
}
