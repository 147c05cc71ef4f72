package wire

import (
	"encoding/json"
	"testing"

	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// suiteJobs is the pinned SPECfp95 suite as jobs on the paper's reference
// machine — the traffic the serving benchmarks put on the wire.
func suiteJobs() []driver.Job {
	m := machine.MustParse("4c2b2l64r")
	loops := workload.SPECfp95()
	jobs := make([]driver.Job, len(loops))
	for i, l := range loops {
		jobs[i] = driver.Job{Graph: l.Graph, Machine: m, Opts: pipeline.Options{Replicate: true}}
	}
	return jobs
}

// suiteOutcomes compiles suiteJobs.
func suiteOutcomes(tb testing.TB) []driver.Outcome {
	tb.Helper()
	outs, err := collect(driver.New(driver.Config{}), suiteJobs())
	if err != nil {
		tb.Fatal(err)
	}
	return outs
}

// TestJobCodecAllocs pins the job codec to the ddg text codec's allocation
// budget (6 to parse and 3 to write the same 29-node suite loop, see
// ddg.TestTextCodecAllocs) plus its own: the wire.Job's text on the way
// out, the machine's name on the way in. It hands strings to the text codec
// and copies nothing.
func TestJobCodecAllocs(t *testing.T) {
	var job driver.Job
	for _, j := range suiteJobs() {
		if j.Graph.NumNodes() == 29 {
			job = j
			break
		}
	}
	if job.Graph == nil {
		t.Fatal("suite has no 29-node loop")
	}
	wj, err := EncodeJob(job)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := EncodeJob(job); err != nil {
			t.Fatal(err)
		}
	}); n > 3+1 {
		t.Errorf("EncodeJob: %v allocs/op, want <= 4", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := wj.Decode(); err != nil {
			t.Fatal(err)
		}
	}); n > 6+1 && !raceDetector { // the parser's scratch is pooled
		t.Errorf("Job.Decode: %v allocs/op, want <= 7", n)
	}
}

// The four benchmarks below price the codec per loop over the pinned
// suite; one op is one job or outcome. JSON is not included — these are the
// typed conversions on either side of it.

func BenchmarkEncodeJob(b *testing.B) {
	jobs := suiteJobs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeJob(jobs[i%len(jobs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJob(b *testing.B) {
	jobs := suiteJobs()
	wjs := make([]Job, len(jobs))
	for i, j := range jobs {
		var err error
		if wjs[i], err = EncodeJob(j); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wjs[i%len(wjs)].Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeOutcome(b *testing.B) {
	outs := suiteOutcomes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeOutcome(outs[i%len(outs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeOutcome(b *testing.B) {
	outs := suiteOutcomes(b)
	wos := make([]Outcome, len(outs))
	for i, o := range outs {
		var err error
		if wos[i], err = EncodeOutcome(o); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wos[i%len(wos)].Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// The frame benchmarks price one streamed outcome end to end on either side
// of the connection, the JSON step included: suite loop → NDJSON line, and
// line → proven driver.Outcome. The Reference pair is the struct form
// through encoding/json with the loop echoed — what the stream carried
// before the fast path, and still the fallback; the plain pair is what
// this repository's server and client run now (loop=0, the append encoder,
// the walk into one recycled Frame).

func BenchmarkEncodeFrame(b *testing.B) {
	outs := suiteOutcomes(b)
	var line []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line = AppendOutcomeFrame(line[:0], i, outs[i%len(outs)], false)
	}
}

func BenchmarkEncodeFrameReference(b *testing.B) {
	outs := suiteOutcomes(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceFrame(i, outs[i%len(outs)], true)
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	outs := suiteOutcomes(b)
	lines := make([][]byte, len(outs))
	for i, o := range outs {
		lines[i] = AppendOutcomeFrame(nil, i, o, false)
	}
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(outs)
		if err := DecodeFrame(lines[k], &f); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Outcome.DecodeFor(outs[k].Job); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeFrameReference(b *testing.B) {
	outs := suiteOutcomes(b)
	lines := make([][]byte, len(outs))
	for i, o := range outs {
		lines[i] = referenceFrame(i, o, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f Frame
		if err := json.Unmarshal(lines[i%len(outs)], &f); err != nil {
			b.Fatal(err)
		}
		if _, err := f.Outcome.Decode(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeSubmit prices a POST /batch body per job: the suite in
// program-sized bodies of 64 jobs, decoded job by job as the server admits
// them, and whole (DecodeSubmitRequest, then DecodeJobs), as the server did
// before it admitted jobs while decoding the rest. One op is one body.
func BenchmarkDecodeSubmit(b *testing.B) {
	jobs := suiteJobs()
	var bodies [][]byte
	for lo := 0; lo+64 <= len(jobs); lo += 64 {
		body, err := AppendSubmitRequest(nil, jobs[lo:lo+64])
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) error
	}{
		{"progressive", func(body []byte) error {
			d, err := NewSubmitDecoder(body)
			for i := 0; err == nil && i < d.Len; i++ {
				_, err = d.Next()
			}
			return err
		}},
		{"whole", func(body []byte) error {
			var req SubmitRequest
			err := DecodeSubmitRequest(body, &req)
			if err == nil {
				_, err = DecodeJobs(req.Jobs)
			}
			return err
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.decode(bodies[i%len(bodies)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/job")
		})
	}
}
