package driver

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clusched/internal/ddg"
)

// labeled reports whether g's canonical labeling is already made, read off
// the memo CanonicalForm fills: an unlabeled graph's is the zero Canonical,
// with no Perm. Asking does not label g. (A labeling allocates nothing, as
// a graph carries room for its Perm, so no allocation count tells.)
func labeled(g *ddg.Graph) bool {
	return !reflect.ValueOf(g).Elem().FieldByName("canon").FieldByName("Perm").IsNil()
}

// TestPrepareLabelsWhatTheEngineWillRead: Prepare labels a job whose exact
// key the engine does not hold — its compilation reads the labeling — and
// leaves alone one whose key is resident, which an exact hit answers
// without it. A cache-off engine holds no key, so it labels every job.
func TestPrepareLabelsWhatTheEngineWillRead(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		cacheSize int
		warm      bool // compile the job's loop before Prepare sees an equal copy
		want      bool
	}{
		{"cache on, exact miss", 0, false, true},
		{"cache on, exact key resident", 0, true, false},
		{"cache off", -1, false, true},
		{"cache off, loop compiled before", -1, true, true},
	} {
		c := New(Config{CacheSize: tc.cacheSize})
		for _, j := range sampleJobs(t, "tomcatv")[:4] {
			if tc.warm {
				if _, err := c.Compile(ctx, j); err != nil {
					t.Fatal(err)
				}
			}
			// A structurally equal copy has the job's exact key and no
			// labeling of its own.
			j.Graph = j.Graph.Clone()
			c.Prepare(j)
			if got := labeled(j.Graph); got != tc.want {
				t.Errorf("%s, %s: labeled after Prepare = %v, want %v", tc.name, j.Graph.Name, got, tc.want)
			}
		}
	}
}

// TestPrepareRacesTheWorker: a decoder's Prepare and the engine's serve of
// the same job may run at once — the labeling is made once, whoever asks
// first — and the result is the one a plain compilation gives.
func TestPrepareRacesTheWorker(t *testing.T) {
	ctx := context.Background()
	jobs := sampleJobs(t, "tomcatv", "swim")
	want := make([]string, len(jobs))
	ref := New(Config{CacheSize: -1})
	for i, j := range jobs {
		res, err := ref.Compile(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fmt.Sprint(res.II, res.Schedule.Time, res.Placement.Home, res.Placement.Replicas)
	}
	for _, size := range []int{0, -1} {
		c := New(Config{CacheSize: size})
		for i, j := range jobs {
			j.Graph = j.Graph.Clone()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Prepare(j)
			}()
			res, err := c.Compile(ctx, j)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.II, res.Schedule.Time, res.Placement.Home, res.Placement.Replicas); got != want[i] {
				t.Fatalf("cache size %d, %s: %s, want %s", size, j.Graph.Name, got, want[i])
			}
		}
	}
}
