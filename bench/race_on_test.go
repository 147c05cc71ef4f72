//go:build race

package main

// raceDetector: under -race, sync.Pool drops a random quarter of what is
// put into it, so allocation counts stop repeating.
const raceDetector = true
