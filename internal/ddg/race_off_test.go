//go:build !race

package ddg

const raceDetector = false
