//go:build race

package pipeline

// raceDetector: under -race, sync.Pool drops a random quarter of what is
// put into it, so allocation counts that rest on pooled state stop
// repeating.
const raceDetector = true
