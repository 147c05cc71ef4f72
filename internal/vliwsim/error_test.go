package vliwsim_test

import (
	"errors"
	"testing"

	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
	"clusched/internal/vliwsim"
)

// compiled returns a small verified schedule to corrupt.
func compiled(t *testing.T) *sched.Schedule {
	t.Helper()
	r, err := pipeline.Compile(saxpy(t), machine.MustParse("2c1b2l64r"), pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	return r.Schedule
}

func TestExecuteRejectsMalformedSchedules(t *testing.T) {
	good := compiled(t)
	if _, _, err := vliwsim.Execute(good, 4); err != nil {
		t.Fatalf("baseline schedule rejected: %v", err)
	}

	corrupt := func(mutate func(s *sched.Schedule)) error {
		s := *good
		ig := *good.IG
		ig.Inst = append([]sched.Instance(nil), good.IG.Inst...)
		s.IG = &ig
		s.Time = append([]int(nil), good.Time...)
		mutate(&s)
		_, _, err := vliwsim.Execute(&s, 4)
		return err
	}

	cases := []struct {
		name   string
		mutate func(s *sched.Schedule)
	}{
		{"orig out of range", func(s *sched.Schedule) { s.IG.Inst[0].Orig = int32(s.IG.G.NumNodes() + 3) }},
		{"negative orig", func(s *sched.Schedule) { s.IG.Inst[0].Orig = -1 }},
		{"short time table", func(s *sched.Schedule) { s.Time = s.Time[:1] }},
		{"zero II", func(s *sched.Schedule) { s.II = 0 }},
	}
	for _, tc := range cases {
		err := corrupt(tc.mutate)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		var serr *vliwsim.ScheduleError
		if !errors.As(err, &serr) {
			t.Errorf("%s: error %v is not a *ScheduleError", tc.name, err)
		}
	}

	var nilErr *vliwsim.ScheduleError
	if _, _, err := vliwsim.Execute(nil, 4); !errors.As(err, &nilErr) {
		t.Errorf("nil schedule: got %v", err)
	}
}

func TestMeasureReportsSteadyStateII(t *testing.T) {
	s := compiled(t)
	rep, err := vliwsim.Measure(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceDiff != "" {
		t.Fatalf("trace diff: %s", rep.TraceDiff)
	}
	if rep.CyclesPerIter != float64(s.II) {
		t.Fatalf("measured %.2f cycles/iteration, II is %d", rep.CyclesPerIter, s.II)
	}
	if rep.LastDone != rep.ModelLastDone {
		t.Fatalf("completion %d, model %d", rep.LastDone, rep.ModelLastDone)
	}
}
