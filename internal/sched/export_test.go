package sched

import "clusched/internal/machine"

// The retired scheduler, for the oracle tests of package sched_test, which
// run whole II searches (internal/pipeline) on it.
var (
	ReferenceScheduleLoopScratch = referenceScheduleLoopScratch
	ReferenceUASAssignScratch    = referenceUASAssignScratch
)

// RaceDetector is raceDetector, for package sched_test.
const RaceDetector = raceDetector

// BelowRecurrence reports whether ii is below the recurrence bound of p's
// instance graph on m, on an arena of its own.
func BelowRecurrence(p *Placement, m machine.Config, ii int, zeroBus bool) bool {
	sc := NewScratch()
	ig, err := sc.buildIGraph(p, m, zeroBus)
	if err != nil {
		return false
	}
	_, below := belowRecurrence(ig, ii, sc)
	return below
}
