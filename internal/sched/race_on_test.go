//go:build race

package sched

// raceDetector: under -race, sync.Pool drops a random quarter of what is
// put into it, so allocation counts that rest on pooled arenas stop
// repeating — and everything runs several times slower.
const raceDetector = true
