//go:build !race

package clusched

const raceDetector = false
