//go:build race

package clusched

// raceDetector: under -race, sync.Pool drops a random quarter of what is
// put into it, so allocation counts that rest on pooled arenas stop
// repeating.
const raceDetector = true
