package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"clusched/internal/arena"
	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/pipeline"
	"clusched/internal/wire"
)

// DiskCache is a persistent, content-addressed result cache implementing
// driver.Store: one file per job key (sha256 of driver.JobKey), written
// behind a bounded queue so Save never blocks the compile workers on I/O.
// A restarted server pointed at the same directory serves previously
// compiled jobs without recompiling them.
//
// An entry is the outcome frame the batch stream sends for the job with
// loop=0, behind a header line and, for a result, ahead of its loop text:
//
//	<crc32> <fingerprint> <JobKey>\n
//	{"type":"outcome","index":0,"outcome":{…}}\n
//	<loop in the ddg text format>
//
// The fingerprint is the stored loop's exact Fingerprint, and the CRC-32
// covers everything after itself. Load proves the schedule through the wire
// decoder, so a damaged, stale or lying entry can never inject an invalid
// result: it reads as a miss and is deleted.
type DiskCache struct {
	dir string

	writes chan diskEntry
	wg     sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	dropped uint64 // Saves discarded because the write queue was full or the cache closed
	errs    uint64 // entries that failed to encode, write or read back
}

type diskEntry struct {
	path string
	blob []byte
}

// writeQueueDepth bounds the write-behind backlog; beyond it Save drops
// entries (the cache is best-effort — the result is still served from
// memory).
const writeQueueDepth = 256

// entryExt names the entry format. A directory written in another format
// holds no file under this extension, so its entries are never opened:
// every job is a plain miss, and the old files are left alone.
const entryExt = ".f1"

// framePool lends Load the Frame an entry is walked into; the decoder copies
// what the Result keeps, so a Frame is reusable once Load returns.
var framePool arena.Pool[wire.Frame]

// OpenDiskCache opens (creating if needed) a disk cache rooted at dir.
func OpenDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: disk cache: %w", err)
	}
	c := &DiskCache{dir: dir, writes: make(chan diskEntry, writeQueueDepth)}
	c.wg.Add(1)
	go c.writer()
	return c, nil
}

// path maps a job key to its content-addressed file.
func (c *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+entryExt)
}

// appendHex appends the n low bytes of v as 2·n lowercase hex digits.
func appendHex(dst []byte, v uint64, n int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return hex.AppendEncode(dst, b[8-n:])
}

// Load implements driver.Store. An entry that fails to decode — damaged,
// unprovable, lying, or naming a strategy this build lacks — is a miss, not
// a wrong answer: it is deleted and counted.
func (c *DiskCache) Load(j driver.Job) (*pipeline.Result, error, bool) {
	key := driver.JobKey(j)
	path := c.path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, false
	}
	res, cerr, bad := decodeEntry(blob, key, j)
	if bad {
		os.Remove(path)
		c.fail()
	}
	return res, cerr, res != nil || cerr != nil
}

// decodeEntry checks an entry's key byte for byte, then its CRC, then walks
// its frame. An entry for j.Graph's exact presentation is decoded for j: no
// text is parsed and the result's Loop is j.Graph itself. One stored for an
// isomorphic sibling, or under a fingerprint algorithm this build does not
// run, is decoded onto its parsed loop, which the Compiler then remaps. An error entry is served only for the exact graph
// it was computed on — its message may quote node names, and there is no
// schedule to remap — and a sibling reads it as a miss that leaves it be.
func decodeEntry(blob []byte, key string, j driver.Job) (res *pipeline.Result, cerr error, bad bool) {
	n := 8 + 1 + 16 + 1 + len(key) + 1
	var sum, fp [16]byte
	if len(blob) < n || string(blob[26:n-1]) != key || blob[n-1] != '\n' ||
		!bytes.Equal(blob[:8], appendHex(sum[:0], uint64(crc32.ChecksumIEEE(blob[8:])), 4)) {
		return nil, nil, true
	}
	frame, text, ok := bytes.Cut(blob[n:], []byte{'\n'})
	f := framePool.Get()
	defer framePool.Put(f)
	if !ok || wire.DecodeFrame(frame, f) != nil || f.Type != wire.FrameOutcome || f.Outcome == nil {
		return nil, nil, true
	}
	exact := bytes.Equal(blob[9:25], appendHex(fp[:0], j.Graph.Fingerprint(), 8))
	switch {
	case f.Outcome.Error != "" && exact:
		return nil, &wire.RemoteError{Msg: f.Outcome.Error}, false
	case f.Outcome.Error != "":
		return nil, nil, false
	case !exact:
		g, err := ddg.ParseOneString(string(text))
		if err != nil {
			return nil, nil, true
		}
		j = driver.Job{Graph: g, Machine: j.Machine}
	}
	out, err := f.Outcome.DecodeFor(j)
	return out.Result, nil, err != nil
}

// fail counts an entry that could not be encoded, written or read back.
func (c *DiskCache) fail() {
	c.mu.Lock()
	c.errs++
	c.mu.Unlock()
}

// Save implements driver.Store: it enqueues the write and returns
// immediately. Entries are dropped (and counted) when the backlog is full
// or the cache is closed; a result whose loop the text format cannot carry
// is counted as an error and not written.
func (c *DiskCache) Save(j driver.Job, res *pipeline.Result, cerr error) {
	g := j.Graph
	switch {
	case cerr != nil:
		res = nil
	case res != nil:
		g = res.Loop
	default:
		return
	}
	key := driver.JobKey(j)
	blob := append(make([]byte, 8, 512+len(key)+ddg.TextSize(g)), ' ')
	blob = append(append(appendHex(blob, g.Fingerprint(), 8), ' '), key...)
	blob = wire.AppendOutcomeFrame(append(blob, '\n'), 0, driver.Outcome{Job: j, Result: res, Err: cerr}, false)
	if res != nil {
		var err error
		if blob, err = ddg.AppendText(blob, g); err != nil {
			c.fail()
			return
		}
	}
	appendHex(blob[:0], uint64(crc32.ChecksumIEEE(blob[8:])), 4)

	// The enqueue happens under the same lock Close takes to close the
	// channel, so a concurrent Close cannot slip between the closed check
	// and the send. The send is non-blocking, so holding the lock is cheap.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		c.dropped++
		return
	}
	select {
	case c.writes <- diskEntry{path: c.path(key), blob: blob}:
	default:
		c.dropped++
	}
}

// writer is the write-behind goroutine: atomic tmp+rename per entry.
func (c *DiskCache) writer() {
	defer c.wg.Done()
	for e := range c.writes {
		tmp := e.path + ".tmp"
		if err := os.WriteFile(tmp, e.blob, 0o644); err != nil {
			c.fail()
		} else if err := os.Rename(tmp, e.path); err != nil {
			os.Remove(tmp)
			c.fail()
		}
	}
}

// Close flushes the write-behind queue and stops the writer. The cache
// must not be used afterwards.
func (c *DiskCache) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.writes)
	c.wg.Wait()
	return nil
}

// Len returns the number of entries on disk in this cache's format (a
// directory scan; for tests and diagnostics).
func (c *DiskCache) Len() int {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*"+entryExt))
	if err != nil {
		return 0
	}
	return len(matches)
}
