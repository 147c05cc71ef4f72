//go:build !race

package pipeline

const raceDetector = false
