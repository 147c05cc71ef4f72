package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/wire"
	"clusched/internal/workload"
)

// entry is a disk entry cut into its parts; seal puts them back together
// under a fresh CRC, so an edit reaches the decoder instead of the checksum.
type entry struct {
	fp, key string
	frame   wire.Frame
	text    string
}

func readEntry(t *testing.T, path string) entry {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := bytes.Cut(blob, []byte("\n"))
	fields := strings.SplitN(string(head), " ", 3)
	line, text, _ := bytes.Cut(body, []byte("\n"))
	e := entry{text: string(text)}
	if len(fields) != 3 {
		t.Fatalf("entry header %q is not <crc> <fingerprint> <key>", head)
	}
	e.fp, e.key = fields[1], fields[2]
	if err := json.Unmarshal(line, &e.frame); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e entry) seal(t *testing.T) []byte {
	t.Helper()
	line, err := json.Marshal(e.frame)
	if err != nil {
		t.Fatal(err)
	}
	rest := fmt.Sprintf(" %s %s\n%s\n%s", e.fp, e.key, line, e.text)
	return fmt.Appendf(nil, "%08x%s", crc32.ChecksumIEEE([]byte(rest)), rest)
}

// savedEntry writes j's outcome through a fresh cache in dir and returns
// the cache, reopened, and the entry's path.
func savedEntry(t *testing.T, dir string, j driver.Job, res *pipeline.Result, cerr error) (*DiskCache, string) {
	t.Helper()
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache.Save(j, res, cerr)
	cache.Close()
	if cache, err = OpenDiskCache(dir); err != nil {
		t.Fatal(err)
	}
	return cache, cache.path(driver.JobKey(j))
}

func compileOne(t *testing.T) (driver.Job, *pipeline.Result) {
	t.Helper()
	j := testJobs(t, "mgrid", 1)[0]
	res, err := pipeline.Compile(j.Graph, j.Machine, j.Opts)
	if err != nil {
		t.Fatal(err)
	}
	return j, res
}

// TestDiskCacheEntryIsTheStreamFrame: an entry is the header line, the
// outcome frame the stream sends for the job with loop=0, and the loop text
// — nothing a reader of the stream would not recognise.
func TestDiskCacheEntryIsTheStreamFrame(t *testing.T) {
	j, res := compileOne(t)
	cache, path := savedEntry(t, t.TempDir(), j, res, nil)
	defer cache.Close()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text, err := ddg.MarshalText(j.Graph)
	if err != nil {
		t.Fatal(err)
	}
	frame := wire.AppendOutcomeFrame(nil, 0, driver.Outcome{Job: j, Result: res}, false)
	header := fmt.Sprintf(" %016x %s\n", j.Graph.Fingerprint(), driver.JobKey(j))
	if want := header + string(frame) + text; string(blob[8:]) != want {
		t.Fatalf("entry reads\n%s\nwant <crc>%s", blob, want)
	}
	if sealed := readEntry(t, path).seal(t); !bytes.Equal(sealed, blob) {
		t.Fatalf("re-sealing an untouched entry changed it:\n%s\nvs\n%s", sealed, blob)
	}
	if filepath.Ext(path) != entryExt {
		t.Fatalf("entry written to %s", path)
	}
}

// TestDiskCacheLyingEntryIsMiss: an entry whose schedule claims an II no
// search could reach, or whose headline contradicts its schedule, is a miss
// that gets discarded — it used to end the process (out of memory while
// sizing the proof) or load with the lie intact. The lies are sealed under
// a valid CRC: the proof, not the checksum, refuses them.
func TestDiskCacheLyingEntryIsMiss(t *testing.T) {
	j, res := compileOne(t)
	lies := map[string]func(wr *wire.Result){
		"ii 1<<40":            func(wr *wire.Result) { wr.II, wr.Schedule.II = 1<<40, 1<<40 },
		"ii 1<<62":            func(wr *wire.Result) { wr.II, wr.Schedule.II = 1<<62, 1<<62 },
		"ii 1<<40 and max_ii": func(wr *wire.Result) { wr.II, wr.Schedule.II, wr.Options.MaxII = 1<<40, 1<<40, 1<<40 },
		"headline ii":         func(wr *wire.Result) { wr.II = 17 },
		"negative mii":        func(wr *wire.Result) { wr.MII = -3 },
		"comms+1":             func(wr *wire.Result) { wr.Comms++ },
	}
	for name, lie := range lies {
		cache, path := savedEntry(t, t.TempDir(), j, res, nil)
		if _, _, ok := cache.Load(j); !ok {
			t.Fatal("the honest entry did not load")
		}
		e := readEntry(t, path)
		lie(e.frame.Outcome.Result)
		if err := os.WriteFile(path, e.seal(t), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cache.Load(j); ok {
			t.Errorf("%s: the lying entry loaded", name)
		}
		if _, errs := cache.Dropped(); errs != 1 {
			t.Errorf("%s: %d errors counted, want 1", name, errs)
		}
		if cache.Len() != 0 {
			t.Errorf("%s: the lying entry was not discarded", name)
		}
		cache.Close()
	}
}

// TestDiskCacheDamagedEntryIsMiss: every single-bit flip and every
// truncation of a result entry and of an error entry is a counted miss that
// discards the entry — never a panic, never a served outcome. The entry's
// fields are not all proven (comms_before_replication is history the proof
// cannot recompute), so the CRC is what stands between a flipped bit and a
// served number.
func TestDiskCacheDamagedEntryIsMiss(t *testing.T) {
	j, res := compileOne(t)
	for _, kind := range []string{"result", "error"} {
		var cerr error
		if kind == "error" {
			res, cerr = nil, errors.New("unschedulable: no II under MaxII")
		}
		cache, path := savedEntry(t, t.TempDir(), j, res, cerr)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, ok := cache.Load(j); !ok {
			t.Fatalf("%s: the undamaged entry did not load", kind)
		}
		tries := uint64(0)
		damaged := func(what string, b []byte) {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			tries++
			res, cerr, ok := cache.Load(j)
			if ok || res != nil || cerr != nil {
				t.Fatalf("%s entry, %s: served (%v, %v, %v)", kind, what, res, cerr, ok)
			}
			if _, errs := cache.Dropped(); errs != tries {
				t.Fatalf("%s entry, %s: %d errors counted after %d damaged entries", kind, what, errs, tries)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("%s entry, %s: not discarded (%v)", kind, what, err)
			}
		}
		flipped := make([]byte, len(blob))
		for bit := range 8 * len(blob) {
			copy(flipped, blob)
			flipped[bit/8] ^= 1 << (bit % 8)
			damaged(fmt.Sprintf("bit %d flipped", bit), flipped)
		}
		for n := range len(blob) {
			damaged(fmt.Sprintf("cut to %d bytes", n), blob[:n])
		}
		cache.Close()
	}
}

// parentFormatEntry is an entry as the previous format wrote it, verbatim:
// one JSON object under <sha256 of the key>.json, the loop echoed in the
// result. It holds the first testJobs("mgrid", 1) job.
const parentFormatEntry = `{"key":"v8|c=9232bb66c32bcbde|m=4c1b2l64r|strat=paper|rep=1|lrep=0|lat0=0|macro=0|maxii=0|noreg=0|ver=0","result":{"loop":"loop mgrid_loop000\nnode a0 iadd\nnode ld0 load\nnode f0_0 fmul\nnode f0_1 fadd\nnode f0_2 fdiv\nnode f0_3 fadd\nnode st0 store\nnode a1 iadd\nnode ld1 load\nnode f1_0 fmul\nnode f1_1 fadd\nnode f1_2 fmul\nnode f1_3 fadd\nnode st1 store\nnode a2 iadd\nnode ld2 load\nnode f2_0 fmul\nnode f2_1 fdiv\nnode f2_2 fdiv\nnode f2_3 fmul\nnode st2 store\nnode a3 iadd\nnode ld3 load\nnode f3_0 fadd\nnode f3_1 fmul\nnode f3_2 fdiv\nnode f3_3 fadd\nnode st3 store\nedge a0 a0 dist 1\nedge a0 ld0\nedge ld0 f0_0\nedge f0_0 f0_1\nedge f0_1 f0_2\nedge f0_2 f0_3\nedge f0_3 st0\nedge a0 st0\nedge a1 a1 dist 1\nedge a1 ld1\nedge ld1 f1_0\nedge f1_0 f1_1\nedge f1_1 f1_2\nedge f1_2 f1_3\nedge f1_3 st1\nedge a1 st1\nedge a2 a2 dist 1\nedge a2 ld2\nedge ld2 f2_0\nedge f2_0 f2_1\nedge f2_1 f2_2\nedge f2_2 f2_3\nedge f2_3 st2\nedge a2 st2\nedge a3 a3 dist 1\nedge a3 ld3\nedge ld3 f3_0\nedge f3_0 f3_1\nedge f3_1 f3_2\nedge f3_2 f3_3\nedge f3_3 st3\nedge a3 st3\nend\n","machine":{"config":"4c1b2l64r","clusters":4,"buses":1,"bus_latency":2,"regs_per_cluster":16},"options":{"replicate":true},"mii":4,"ii":4,"length":54,"sc":14,"comms_before_replication":0,"comms":0,"replication":{},"ii_increases":{},"placement":{"home":[0,0,0,0,0,0,0,1,1,1,1,1,1,1,2,2,2,2,2,2,2,3,3,3,3,3,3,3],"replicas":[1,1,1,1,1,1,1,2,2,2,2,2,2,2,4,4,4,4,4,4,4,8,8,8,8,8,8,8]},"schedule":{"ii":4,"time":[0,1,3,9,12,30,34,0,1,3,9,12,18,22,0,1,3,9,28,46,52,0,1,3,6,12,33,36]}}}`

// TestDiskCacheParentFormatIsMiss: a directory written in the previous
// format is never read. A job whose entry exists only in that form is
// recompiled — nothing counted, the old file untouched — and its outcome is
// written in the current form beside it.
func TestDiskCacheParentFormatIsMiss(t *testing.T) {
	j := testJobs(t, "mgrid", 1)[0]
	key := driver.JobKey(j)
	if !strings.Contains(parentFormatEntry, `"key":"`+key+`"`) {
		t.Fatalf("the fixture is not an entry for %s: move it along with the JobKey", key)
	}
	dir := t.TempDir()
	old := strings.TrimSuffix(filepath.Base((&DiskCache{dir: dir}).path(key)), entryExt) + ".json"
	if err := os.WriteFile(filepath.Join(dir, old), []byte(parentFormatEntry), 0o644); err != nil {
		t.Fatal(err)
	}
	cache, err := OpenDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Store: cache})
	id, err := s.Submit([]driver.Job{j}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := waitDone(t, s, id)
	if st.Err != nil || st.Outcomes[0].CacheHit {
		t.Fatalf("outcome %+v: want a fresh compile", st.Outcomes[0])
	}
	if c := s.Stats().Cache; c.Misses != 1 || c.StoreHits != 0 || c.SemanticStoreHits != 0 {
		t.Fatalf("cache %+v: want one miss", c)
	}
	s.Shutdown(context.Background())
	cache.Close()
	if dropped, errs := cache.Dropped(); dropped != 0 || errs != 0 {
		t.Errorf("the old entry was counted: dropped %d, errs %d", dropped, errs)
	}
	if after, err := os.ReadFile(filepath.Join(dir, old)); err != nil || string(after) != parentFormatEntry {
		t.Errorf("the old entry was touched (read error: %v)", err)
	}
	if cache.Len() != 1 {
		t.Errorf("%d entries in the current form, want the recompiled one", cache.Len())
	}
}

// fnvEntry installs testdata/fnv-<kind>.f1 in a fresh directory under j's
// key and opens a cache there: an entry written for j by the previous
// fingerprint algorithm (FNV-1a, byte at a time), whose header names a
// fingerprint this build never computes.
func fnvEntry(t *testing.T, kind string, j driver.Job) (*DiskCache, string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "fnv-"+kind+".f1"))
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := cache.path(driver.JobKey(j))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	e := readEntry(t, path)
	if e.key != driver.JobKey(j) {
		t.Fatalf("the fixture is an entry for %s, not %s: move it along with the JobKey", e.key, driver.JobKey(j))
	}
	if e.fp == fmt.Sprintf("%016x", j.Graph.Fingerprint()) {
		t.Fatalf("the fixture's fingerprint %s is this build's", e.fp)
	}
	return cache, path
}

// TestDiskCacheEntryUnderTheFNVFingerprint: entries written before the
// fingerprint changed carry the old one in their header. A result entry is
// answered through the isomorphic-copy path — the stored loop parsed, the
// schedule remapped onto the job's graph and proven — and booked as a
// semantic store hit; an error entry is a clean miss, and the next Save
// replaces it with one under the current fingerprint.
func TestDiskCacheEntryUnderTheFNVFingerprint(t *testing.T) {
	j, want := compileOne(t)
	t.Run("result", func(t *testing.T) {
		cache, _ := fnvEntry(t, "result", j)
		defer cache.Close()
		c := driver.New(driver.Config{Store: cache})
		res, err := c.Compile(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if st := c.CacheStats(); st.SemanticStoreHits != 1 || st.Misses != 0 || st.StoreHits != 0 {
			t.Fatalf("cache %+v: want one semantic store hit", st)
		}
		if res.Loop != j.Graph || res.II != want.II || res.Length != want.Length {
			t.Fatalf("served II %d length %d on %p, want II %d length %d on the job's graph %p",
				res.II, res.Length, res.Loop, want.II, want.Length, j.Graph)
		}
		if err := sched.Verify(res.Schedule); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("error", func(t *testing.T) {
		jf := j
		jf.Opts.MaxII = 1
		cache, path := fnvEntry(t, "error", jf)
		if res, cerr, ok := cache.Load(jf); ok || res != nil || cerr != nil {
			t.Fatalf("Load = (%v, %v, %v), want a clean miss", res, cerr, ok)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("the miss removed the entry: %v", err)
		}
		c := driver.New(driver.Config{Store: cache})
		_, cerr := c.Compile(context.Background(), jf)
		if cerr == nil {
			t.Fatal("the loop scheduled at MaxII 1; the fixture needs a job that fails")
		}
		if st := c.CacheStats(); st.Misses != 1 || st.StoreHits != 0 {
			t.Fatalf("cache %+v: want one miss", st)
		}
		cache.Close()
		if dropped, errs := cache.Dropped(); dropped != 0 || errs != 0 {
			t.Errorf("dropped %d, errs %d: want the old entry uncounted and the new one written", dropped, errs)
		}
		if e := readEntry(t, path); e.fp != fmt.Sprintf("%016x", jf.Graph.Fingerprint()) || e.frame.Outcome.Error != cerr.Error() {
			t.Fatalf("entry holds fingerprint %s, error %q: want the Save's", e.fp, e.frame.Outcome.Error)
		}
		reopened, err := OpenDiskCache(filepath.Dir(path))
		if err != nil {
			t.Fatal(err)
		}
		defer reopened.Close()
		if _, lerr, ok := reopened.Load(jf); !ok || lerr == nil || lerr.Error() != cerr.Error() {
			t.Fatalf("the replaced entry loads as (%v, %v), want the error", lerr, ok)
		}
	})
}

// TestDiskCacheIgnoresStaleKeyVersion: a directory written by a binary one
// JobKey version back. The old entry sits under the hash of its own key,
// where no current key ever looks: the job is a plain miss — not an error,
// nothing counted — and the entry is left alone (the operator empties the
// directory; the cache never scans it).
func TestDiskCacheIgnoresStaleKeyVersion(t *testing.T) {
	j, res := compileOne(t)
	cache, path := savedEntry(t, t.TempDir(), j, res, nil)
	defer cache.Close()

	// Re-key the entry the way the previous version would have written it.
	key := driver.JobKey(j)
	stale, ok := strings.CutPrefix(key, "v8|")
	if !ok {
		t.Fatalf("JobKey %q is not v8: move this test along with the version", key)
	}
	stale = "v7|" + stale
	e := readEntry(t, path)
	e.key = stale
	blob := e.seal(t)
	if err := os.WriteFile(cache.path(stale), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}

	if res, cerr, ok := cache.Load(j); ok || res != nil || cerr != nil {
		t.Fatalf("Load = (%v, %v, %v) on a directory holding only a v7 entry, want a clean miss", res, cerr, ok)
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

// TestDiskCacheSaveAfterCloseIsDropped: a Save the closed cache cannot
// queue is counted as dropped, as one the full queue cannot.
func TestDiskCacheSaveAfterCloseIsDropped(t *testing.T) {
	j, res := compileOne(t)
	cache, err := OpenDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cache.Close()
	cache.Save(j, res, nil)
	if dropped, errs := cache.Dropped(); dropped != 1 || errs != 0 {
		t.Fatalf("Dropped() = %d, %d after a Save on a closed cache, want 1, 0", dropped, errs)
	}
}

// diskHits fills a cache in dir with the suite compiled on 4c2b2l64r with
// replication, and returns it reopened with the jobs whose own presentation
// is stored (exact hits) and a permuted clone of each (isomorphic hits).
func diskHits(tb testing.TB, dir string) (cache *DiskCache, exact, clones []driver.Job) {
	tb.Helper()
	m := machine.MustParse("4c2b2l64r")
	var jobs []driver.Job
	for _, l := range workload.SPECfp95() {
		jobs = append(jobs, driver.Job{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: true}})
	}
	cache, err := OpenDiskCache(dir)
	if err != nil {
		tb.Fatal(err)
	}
	stored := map[string]driver.Job{} // the last Save of a key is the one on disk
	for i, j := range jobs {
		res, err := pipeline.Compile(j.Graph, j.Machine, j.Opts)
		if err != nil {
			tb.Fatal(err)
		}
		cache.Save(j, res, nil)
		stored[driver.JobKey(j)] = j
		if i%128 == 127 {
			cache.Close() // flush: the write queue holds 256
			if cache, err = OpenDiskCache(dir); err != nil {
				tb.Fatal(err)
			}
		}
	}
	cache.Close()
	if cache, err = OpenDiskCache(dir); err != nil {
		tb.Fatal(err)
	}
	for i, j := range jobs {
		if stored[driver.JobKey(j)].Graph != j.Graph {
			continue
		}
		exact = append(exact, j)
		clones = append(clones, driver.Job{Graph: ddg.PermuteRandom(j.Graph, j.Graph.Name+"#p", int64(i)), Machine: m, Opts: j.Opts})
	}
	return cache, exact, clones
}

// What a disk hit allocates on warm pools. An exact hit is the key and its
// path (JobKey's 4 objects, the sha256 hex and the joined path's 5), the
// file read (5) and one proof — foreignObjects, the Result and sched's
// accept; the Frame the entry is walked into is pooled. An isomorphic hit
// adds the stored loop text, copied into a string and parsed once.
const (
	exactHitObjects = 21
	foreignObjects  = 7
	parseObjects    = 5
	siblingObjects  = exactHitObjects + 1 + parseObjects
)

// TestDiskHitCensus: over the suite on 4c2b2l64r, an exact disk hit costs
// exactly exactHitObjects — of which the decode is one proof and no parse,
// the result's Loop being the job's own graph — and an isomorphic hit one
// parse more.
func TestDiskHitCensus(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cache, exact, clones := diskHits(t, t.TempDir())
	defer cache.Close()
	for i, j := range exact {
		res, _, ok := cache.Load(j)
		if !ok || res.Loop != j.Graph {
			t.Fatalf("%s: not an exact hit onto the job's graph (ok=%v)", j.Graph.Name, ok)
		}
		load := leastAllocs(func() { cache.Load(j) })
		read := leastAllocs(func() { os.ReadFile(cache.path(driver.JobKey(j))) })
		if load != exactHitObjects || load-read != foreignObjects {
			t.Errorf("%s: an exact hit allocates %d objects, %d past the key, path and read; want %d and one proof's %d",
				j.Graph.Name, load, load-read, exactHitObjects, foreignObjects)
		}
		clone := clones[i]
		if res, _, ok := cache.Load(clone); !ok || res.Loop == clone.Graph {
			t.Fatalf("%s: not an isomorphic hit (ok=%v)", clone.Graph.Name, ok)
		}
		if n := leastAllocs(func() { cache.Load(clone) }); n != siblingObjects {
			t.Errorf("%s: an isomorphic hit allocates %d objects, want %d", clone.Graph.Name, n, siblingObjects)
		}
	}
}

// leastAllocs is the exact number of heap objects one more call of f
// allocates: the least of three counted runs, so a collection's own
// bookkeeping cannot show up as one of ours.
func leastAllocs(f func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// BenchmarkDiskHitExact: Load of a job whose own presentation is stored.
func BenchmarkDiskHitExact(b *testing.B) {
	cache, exact, _ := diskHits(b, b.TempDir())
	defer cache.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if _, _, ok := cache.Load(exact[i%len(exact)]); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkDiskHitSemantic: Load of a permuted clone plus the remap onto
// it, as the driver's fromStore serves one.
func BenchmarkDiskHitSemantic(b *testing.B) {
	cache, _, clones := diskHits(b, b.TempDir())
	defer cache.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		j := clones[i%len(clones)]
		res, _, ok := cache.Load(j)
		if !ok {
			b.Fatal("miss")
		}
		pipeline.RemapResult(res, j.Graph, j.Opts)
	}
}

// Dropped returns how many Saves were discarded because the write queue
// was full or the cache closed, and how many entries failed to encode,
// write or read back.
func (c *DiskCache) Dropped() (dropped, errs uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped, c.errs
}
