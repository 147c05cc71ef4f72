package sched

// The retired scheduler, for the oracle tests of package sched_test, which
// run whole II searches (internal/pipeline) on it.
var (
	ReferenceScheduleLoopScratch = referenceScheduleLoopScratch
	ReferenceUASAssignScratch    = referenceUASAssignScratch
)

// RaceDetector is raceDetector, for package sched_test.
const RaceDetector = raceDetector
