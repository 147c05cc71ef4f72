package wire

// Differential fuzzers for the three walks of scan.go, in the style of
// ddg.FuzzParseText: on every input, whenever a walk accepts, encoding/json
// accepts the same bytes and fills a deeply equal value — so the fast path
// can only ever be a faster way to the answer the reference gives — and the
// public Decode* functions agree with the reference call whichever path ran.
// One step further along the trust boundary: an outcome that decodes is
// either proven (its schedule passes sched.Verify, its headline agrees with
// it) or an error value. Nothing panics.
//
// Seeds: real traffic in both loop forms, the irregular inputs of
// reference_test.go, and bodies formatted the way Python's json.dumps
// formats them, as a foreign client posts them. The built server read by
// such a client end to end is `go test -run TestSmokeService
// ./internal/integration`.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
)

// fuzzTraffic is a handful of real outcomes, error outcomes included.
func fuzzTraffic(tb testing.TB) []driver.Outcome {
	tb.Helper()
	m := machine.MustParse("4c2b2l64r")
	outs := compileSample(tb, "tomcatv", 3, m, pipeline.Options{Replicate: true})
	outs = append(outs, compileSample(tb, "swim", 2, machine.MustParse("2c1b2l64r"), pipeline.Options{Strategy: "uas"})...)
	outs = append(outs, driver.Outcome{Job: outs[0].Job, Err: &RemoteError{Msg: "pipeline: loop <x> does not schedule"}, CacheHit: true})
	return outs
}

// pythonJob is one job as json.dumps writes it: ", " and ": " separators,
// keys in the order the script builds them.
const pythonJob = `{"schema": 2, "loop": "loop l\nnode x load\nnode m fmul\nnode s store\nedge x m\nedge m s\nend\n", "machine": {"config": "4c2b2l64r"}, "options": {"replicate": true}}`

// checkWalk holds one walk to the reference on one input.
func checkWalk[T any](t *testing.T, data []byte, walk func(*scanner, *T) bool, decode func([]byte, *T) error, reference func([]byte, *T) error) {
	t.Helper()
	var fast, ref, viaDecode T
	s := scanner{b: data}
	accepted := walk(&s, &fast) && s.end()
	refErr := reference(data, &ref)
	if accepted {
		if refErr != nil {
			t.Fatalf("the walk accepted what encoding/json rejects (%v):\n%q", refErr, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("the walk and encoding/json disagree on\n%q\n fast: %+v\n json: %+v", data, fast, ref)
		}
	}
	err := decode(data, &viaDecode)
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("Decode error %v, reference %v, on\n%q", err, refErr, data)
	}
	if !reflect.DeepEqual(viaDecode, ref) {
		t.Fatalf("Decode and the reference disagree on\n%q\n got:  %+v\n want: %+v", data, viaDecode, ref)
	}
}

func unmarshal[T any](data []byte, v *T) error { return json.Unmarshal(data, v) }

// firstValue is how the request and answer bodies have always been read:
// one value off a json.Decoder.
func firstValue[T any](data []byte, v *T) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// checkProven decodes an outcome for job and asserts the package's claim: a
// Result that decodes is proven.
func checkProven(t *testing.T, wo Outcome, job driver.Job) {
	t.Helper()
	out, err := wo.DecodeFor(job)
	if err != nil || out.Result == nil {
		return
	}
	res := out.Result
	if err := sched.Verify(res.Schedule); err != nil {
		t.Fatalf("a decoded result does not verify: %v", err)
	}
	if res.II != res.Schedule.II || res.MII < 1 || res.MII > res.II ||
		res.Length != res.Schedule.Length || res.SC != res.Schedule.SC {
		t.Fatalf("a decoded result's headline (II=%d MII=%d len=%d sc=%d) contradicts its schedule (II=%d len=%d sc=%d)",
			res.II, res.MII, res.Length, res.SC, res.Schedule.II, res.Schedule.Length, res.Schedule.SC)
	}
}

func FuzzDecodeFrame(f *testing.F) {
	traffic := fuzzTraffic(f)
	for i, o := range traffic {
		f.Add(AppendOutcomeFrame(nil, i, o, true))
		f.Add(AppendOutcomeFrame(nil, i, o, false))
	}
	for _, tc := range irregularInputs {
		f.Add([]byte(tc.frame))
	}
	f.Add([]byte(`{"type": "outcome", "index": 2, "outcome": {"error": "café", "cache_hit": true, "elapsed_ms": 0.25}}`))
	job := traffic[0].Job
	// dirty is decoded into again and again: recycling a frame must never
	// show in the value.
	var dirty Frame
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalk(t, data, (*scanner).frame, DecodeFrame, unmarshal[Frame])
		var fresh Frame
		errFresh, errDirty := DecodeFrame(data, &fresh), DecodeFrame(data, &dirty)
		if (errFresh == nil) != (errDirty == nil) || !reflect.DeepEqual(fresh, dirty) {
			t.Fatalf("a recycled frame decodes differently (%v / %v) on\n%q", errFresh, errDirty, data)
		}
		if errFresh == nil && fresh.Validate() == nil && fresh.Type == FrameOutcome {
			checkProven(t, *fresh.Outcome, job)
		}
	})
}

func FuzzDecodeSubmitRequest(f *testing.F) {
	traffic := fuzzTraffic(f)
	jobs := make([]driver.Job, len(traffic))
	for i, o := range traffic {
		jobs[i] = o.Job
	}
	for n := 0; n <= len(jobs); n += 3 {
		body, err := referenceSubmit(jobs[:n], int64(n)*100, n > 0)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"jobs": [` + pythonJob + `, ` + pythonJob + `]}`))
	f.Add([]byte(`{"jobs": [` + pythonJob + `], "trace": true, "timeout_ms": 30000}` + "\n"))
	f.Add([]byte(`{"jobs":[{"loop":"l","machine":{"config":"4c2b2l64r"},"options":{"Strategy":"uas"}}]}`))
	f.Add([]byte(`{"jobs":[{"loop":"l","machine":{"config":"unified","clusters":1,"regs_per_cluster":64},"options":{"max_ii":-3}}],"jobs":[]}`))
	f.Add([]byte(`{"timeout_ms": 5, "jobs": [` + pythonJob + `, {"loop": "\\\"]\\\\", "machine": {"config": "4c2b2l64r"}, "options": {}}]}`))
	f.Add([]byte(`{"jobs": [` + pythonJob + `, {"loop": "l", "machine": {"config": "4c2b2l64r"}, "options": {"strategy": "nope"}}, ` + pythonJob + `], "trace": tru}`))
	f.Add([]byte(`{"jobs": [` + pythonJob + `, {"loop": "l", "machine": {"config": "4c2b2l64r"}, "options": {}}, {"lo\u006fp": "l"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalk(t, data, (*scanner).submit, DecodeSubmitRequest, firstValue[SubmitRequest])
		checkWalk(t, data, (*scanner).job, DecodeJob, firstValue[Job])
		checkProgressive(t, data)
		var req SubmitRequest
		if DecodeSubmitRequest(data, &req) != nil {
			return
		}
		for _, wj := range req.Jobs {
			if j, err := wj.Decode(); err == nil {
				if verr := j.Graph.Validate(); verr != nil {
					t.Fatalf("a decoded job carries an invalid graph: %v", verr)
				}
			}
		}
	})
}

// checkProgressive holds the job-at-a-time decode of a POST /batch body to
// the whole one, DecodeSubmitRequest then DecodeJobs: the same envelope, the
// same jobs, and the same first error with the same text — a
// *MalformedError exactly when DecodeSubmitRequest fails.
func checkProgressive(t *testing.T, data []byte) {
	t.Helper()
	var req SubmitRequest
	reqErr := DecodeSubmitRequest(data, &req)
	want, wantErr := []driver.Job(nil), reqErr
	if reqErr == nil {
		want, wantErr = DecodeJobs(req.Jobs)
	}
	var got []driver.Job
	d, err := NewSubmitDecoder(data)
	if err == nil {
		if reqErr == nil && (d.Len != len(req.Jobs) || d.TimeoutMS != req.TimeoutMS || d.Trace != req.Trace) {
			t.Fatalf("envelope %d jobs, timeout %d, trace %v; DecodeSubmitRequest %d, %d, %v on\n%q",
				d.Len, d.TimeoutMS, d.Trace, len(req.Jobs), req.TimeoutMS, req.Trace, data)
		}
		got = make([]driver.Job, d.Len)
		for i := range got {
			if got[i], err = d.Next(); err != nil {
				break
			}
		}
	}
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("progressive decode error %v, whole %v, on\n%q", err, wantErr, data)
	}
	if malformed := errors.As(err, new(*MalformedError)); malformed != (reqErr != nil) {
		t.Fatalf("progressive decode error %v is malformed: %v, DecodeSubmitRequest's %v, on\n%q", err, malformed, reqErr, data)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("the progressive and the whole decode disagree on\n%q", data)
	}
}

func FuzzDecodeJobStatus(f *testing.F) {
	traffic := fuzzTraffic(f)
	st := JobStatus{ID: "job-12", State: StateDone, NumJobs: len(traffic), CreatedMS: 1759363200000, FinishedMS: 1759363200250}
	f.Add(AppendJobStatus(nil, &st, traffic, true))
	f.Add(AppendJobStatus(nil, &st, traffic[:1], false))
	st.State, st.RetryAfterMS = StateRunning, 100
	f.Add(AppendJobStatus(nil, &st, nil, true))
	f.Add([]byte(`{"id": "job-1", "state": "canceled", "num_jobs": 1, "created_ms": 5, "error": "service: canceled by request", "outcomes": [{"error": "context canceled"}]}`))
	f.Add([]byte(`{"id":"job-1","state":"done","num_jobs":1,"outcomes":null}`))
	job := traffic[0].Job
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWalk(t, data, (*scanner).status, DecodeJobStatus, firstValue[JobStatus])
		var got JobStatus
		if DecodeJobStatus(data, &got) != nil {
			return
		}
		for _, wo := range got.Outcomes {
			checkProven(t, wo, job)
		}
	})
}
