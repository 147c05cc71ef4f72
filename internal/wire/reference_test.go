package wire

// The reference codec: encoding/json by reflection over the struct form,
// which is how every message was written before the append-style encoders
// of append.go and is still how anything irregular is read. The reference*
// functions below are the retired call sites kept as they were — the
// client's POST /batch body, the server's outcome frame with its
// "encoding outcome" substitution, the server's statusWire — and the tests
// hold the fast path to them byte for byte (encoders) and value for value
// (decoders; the fuzzers in fuzz_test.go extend that to arbitrary input).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

func referenceJob(j driver.Job) ([]byte, error) {
	wj, err := EncodeJob(j)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wj)
}

func referenceSubmit(jobs []driver.Job, timeoutMS int64, trace bool) ([]byte, error) {
	wjs := make([]Job, len(jobs))
	for i, j := range jobs {
		wj, err := EncodeJob(j)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		wjs[i] = wj
	}
	return json.Marshal(SubmitRequest{Jobs: wjs, TimeoutMS: timeoutMS, Trace: trace})
}

// referenceOutcome is the server's encoding of one outcome. With loop false
// the result's loop is not written at all — so it cannot fail to encode
// either: the reference encodes a stand-in and blanks the text, which
// omitempty then leaves out.
func referenceOutcome(o driver.Outcome, loop bool) Outcome {
	if !loop && o.Result != nil {
		r := *o.Result
		r.Loop = standInLoop
		o.Result = &r
	}
	wo, err := EncodeOutcome(o)
	if err != nil {
		wo = Outcome{Error: fmt.Sprintf("encoding outcome: %v", err)}
	}
	if !loop && wo.Result != nil {
		wo.Result.Loop = ""
	}
	return wo
}

var standInLoop = func() *ddg.Graph {
	b := ddg.NewBuilder("stand-in")
	b.Node("x", ddg.OpLoad)
	return b.MustBuild()
}()

func referenceFrame(index int, o driver.Outcome, loop bool) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(OutcomeFrame(index, referenceOutcome(o, loop))); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func referenceStatus(st JobStatus, outs []driver.Outcome, loop bool) []byte {
	if len(outs) > 0 {
		st.Outcomes = make([]Outcome, len(outs))
		for i, o := range outs {
			st.Outcomes[i] = referenceOutcome(o, loop)
		}
	}
	blob, err := json.Marshal(st)
	if err != nil {
		panic(err)
	}
	return blob
}

// oracleStrategies are the four registered strategies as the suite runs
// them.
var oracleStrategies = []pipeline.Options{
	{Replicate: true},
	{Strategy: "uas"},
	{Strategy: "moddist"},
	{Strategy: "unified"},
}

// oracleOutcomes is the suite (every 16th loop under -short or -race) on the six
// Table-1 machines under all four strategies, compiled once per test run.
func oracleOutcomes(tb testing.TB) []driver.Outcome {
	tb.Helper()
	oracleOnce.Do(func() { oracleCache = compileOracle(tb) })
	if oracleCache == nil {
		tb.Fatal("compiling the oracle traffic failed in an earlier test")
	}
	return oracleCache
}

var (
	oracleOnce  sync.Once
	oracleCache []driver.Outcome
)

func compileOracle(tb testing.TB) []driver.Outcome {
	tb.Helper()
	stride := 1
	if testing.Short() || raceDetector {
		stride = 16
	}
	var jobs []driver.Job
	loops := workload.SPECfp95()
	for _, m := range machine.PaperConfigs() {
		for _, opts := range oracleStrategies {
			for i := 0; i < len(loops); i += stride {
				jobs = append(jobs, driver.Job{Graph: loops[i].Graph, Machine: m, Opts: opts})
			}
		}
	}
	outs, err := collect(driver.New(driver.Config{CacheSize: -1}), jobs)
	if err != nil {
		// uas cannot schedule every loop on every machine; those failures
		// are outcomes too, and the codec must carry them.
		var be *driver.BatchError
		if !errors.As(err, &be) {
			tb.Fatal(err)
		}
	}
	for i := range outs {
		// Real traffic has both: exercise cache_hit and elapsed_ms.
		outs[i].CacheHit = i%3 == 0
		if i%5 == 0 {
			outs[i].Elapsed = 0
		}
	}
	return outs
}

func diffBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-60)
	t.Fatalf("%s: fast path and reference differ at byte %d:\n  fast: …%s\n  ref:  …%s",
		what, i, got[lo:min(len(got), i+60)], want[lo:min(len(want), i+60)])
}

// TestEncodersMatchReference: every message the fast path writes for real
// traffic is the reference's, byte for byte.
func TestEncodersMatchReference(t *testing.T) {
	outs := oracleOutcomes(t)
	var buf []byte
	for i, o := range outs {
		for _, loop := range []bool{true, false} {
			buf = AppendOutcomeFrame(buf[:0], i, o, loop)
			diffBytes(t, fmt.Sprintf("frame %d (%s on %s, loop=%v)", i, o.Job.Graph.Name, o.Job.Machine.Name, loop),
				buf, referenceFrame(i, o, loop))
		}
		want, err := referenceJob(o.Job)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendJob(buf[:0], o.Job); err != nil {
			t.Fatal(err)
		}
		diffBytes(t, fmt.Sprintf("job %d", i), buf, want)
	}
	// Batches and statuses in program-sized pieces, as the client submits
	// and the poll path answers them.
	for lo := 0; lo < len(outs); lo += 97 {
		batch := outs[lo:min(len(outs), lo+97)]
		jobs := make([]driver.Job, len(batch))
		for i, o := range batch {
			jobs[i] = o.Job
		}
		want, err := referenceSubmit(jobs, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = AppendSubmitRequest(buf[:0], jobs); err != nil {
			t.Fatal(err)
		}
		diffBytes(t, fmt.Sprintf("submit request at %d", lo), buf, want)

		st := JobStatus{ID: fmt.Sprintf("job-%d", lo), State: StateDone, NumJobs: len(batch),
			CreatedMS: 1759363200000, StartedMS: 1759363200001, FinishedMS: 1759363200250}
		if lo%2 == 1 {
			st.State, st.DeadlineMS, st.Error = StateCanceled, 1759363260000, "service: canceled by request"
		}
		for _, loop := range []bool{true, false} {
			buf = AppendJobStatus(buf[:0], &st, batch, loop)
			diffBytes(t, fmt.Sprintf("status at %d (loop=%v)", lo, loop), buf, referenceStatus(st, batch, loop))
		}
	}
	// The forms around the hot one: an empty batch, an unfinished ticket.
	want, _ := referenceSubmit(nil, 0, false)
	buf, _ = AppendSubmitRequest(buf[:0], nil)
	diffBytes(t, "empty submit request", buf, want)
	queued := JobStatus{ID: "job-1", State: StateQueued, NumJobs: 3, CreatedMS: 5, RetryAfterMS: 500}
	diffBytes(t, "queued status", AppendJobStatus(buf[:0], &queued, nil, true), referenceStatus(queued, nil, true))
}

// adversarialStrings are what a JSON string encoder gets wrong: the HTML
// set, the JSONP line separators, control bytes with and without a short
// escape, DEL, quotes and backslashes, invalid and truncated UTF-8.
var adversarialStrings = []string{
	"",
	"plain",
	`<script>alert("x")&amp;</script>`,
	"line\u2028sep\u2029para",
	"ctl\x00\x01\x07\b\t\n\v\f\r\x1b\x1f\x7f",
	`back\slash "quoted" /slash/`,
	"bad\xffutf8\xc0\xaf\xed\xa0\x80",
	"cut\xe2\x80",
	"\xf0\x9f\x98\x80 é 世界",
	"\ufffd already",
	strings.Repeat("<&>", 50),
}

// TestEncodersMatchReferenceOnHostileStrings puts the adversarial strings
// everywhere a string travels: error messages, loop and node names (those
// the text format can carry at all — the rest must fail alike), machine and
// strategy names, ticket ids.
func TestEncodersMatchReferenceOnHostileStrings(t *testing.T) {
	base := oracleOutcomes(t)[0]
	if base.Result == nil {
		t.Fatal("first oracle outcome is an error")
	}
	var buf []byte
	for i, s := range adversarialStrings {
		// As an error message.
		o := driver.Outcome{Job: base.Job, Err: errors.New(s), CacheHit: i%2 == 0, Elapsed: time.Duration(i) * time.Millisecond}
		diffBytes(t, fmt.Sprintf("error frame %q", s), AppendOutcomeFrame(buf[:0], i, o, true), referenceFrame(i, o, true))

		// As loop and node names. Names with white space cannot be written
		// in the text format: both codecs must then agree on the failure.
		b := ddg.NewBuilder(s)
		x := b.Node(s, ddg.OpLoad)
		y := b.Node(s+"'", ddg.OpFMul)
		b.Edge(x, y, 0)
		g, err := b.Build()
		if err != nil {
			t.Fatalf("building graph named %q: %v", s, err)
		}
		job := driver.Job{Graph: g, Machine: base.Job.Machine, Opts: pipeline.Options{Strategy: s, MaxII: i}}
		job.Machine.Name = s
		want, werr := referenceJob(job)
		got, gerr := AppendJob(buf[:0], job)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("job named %q: fast path error %v, reference %v", s, gerr, werr)
		}
		if werr == nil {
			diffBytes(t, fmt.Sprintf("job named %q", s), got, want)
		} else if len(got) != 0 {
			t.Fatalf("job named %q: failed encode left %d bytes behind", s, len(got))
		}
		wantBatch, werr := referenceSubmit([]driver.Job{base.Job, job}, 0, false)
		gotBatch, gerr := AppendSubmitRequest(buf[:0], []driver.Job{base.Job, job})
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("batch with job named %q: fast path error %v, reference %v", s, gerr, werr)
		}
		if werr == nil {
			diffBytes(t, fmt.Sprintf("batch with job named %q", s), gotBatch, wantBatch)
		}

		// As the loop of a result: an unencodable one becomes the
		// "encoding outcome" error outcome with the loop, and travels
		// untouched without it.
		res := *base.Result
		res.Loop = g
		ro := driver.Outcome{Job: job, Result: &res}
		for _, loop := range []bool{true, false} {
			diffBytes(t, fmt.Sprintf("result frame for loop %q (loop=%v)", s, loop),
				AppendOutcomeFrame(buf[:0], i, ro, loop), referenceFrame(i, ro, loop))
		}

		// As ticket id, state and batch error.
		st := JobStatus{ID: s, State: s, NumJobs: 1, Error: s}
		diffBytes(t, fmt.Sprintf("status named %q", s),
			AppendJobStatus(buf[:0], &st, []driver.Outcome{o}, true), referenceStatus(st, []driver.Outcome{o}, true))
	}
}

// TestEncodersMatchReferenceOnHeteroMachine: the machine matrix is the one
// message part the decoders leave to encoding/json; the encoder writes it.
func TestEncodersMatchReferenceOnHeteroMachine(t *testing.T) {
	m, err := machine.NewHetero(2, 2, 32, [][ddg.NumClasses]int{{2, 1, 2}, {2, 3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range compileSample(t, "turb3d", 4, m, pipeline.Options{Replicate: true}) {
		frame := AppendOutcomeFrame(nil, i, o, true)
		diffBytes(t, "hetero frame", frame, referenceFrame(i, o, true))
		var f Frame
		if err := DecodeFrame(frame, &f); err != nil {
			t.Fatal(err)
		}
		dec, err := f.Outcome.Decode()
		if err != nil {
			t.Fatalf("hetero frame does not decode through the fallback: %v", err)
		}
		if !reflect.DeepEqual(dec.Result.Schedule.Time, o.Result.Schedule.Time) || dec.Result.Machine.Hetero == nil {
			t.Fatal("hetero result changed across the wire")
		}
	}
}

// TestElapsedFormatMatchesReference walks elapsed_ms across the exponent
// ranges where encoding/json changes notation.
func TestElapsedFormatMatchesReference(t *testing.T) {
	values := []float64{0.001, 0.0015, 0.25, 1, 1.5, 12.345, 999.999, 1e3, 123456.789, 1e6, 9.223372036854775e12,
		1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e-10, 1e20, 1e21, 1.7976931348623157e308, 5e-324, -2.5, -1e-7, -1e21}
	for _, v := range values {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); !bytes.Equal(got, want) {
			t.Errorf("appendFloat(%g) = %s, encoding/json writes %s", v, got, want)
		}
	}
	// And through the one door it has: every microsecond count's
	// millisecond value, across the magnitudes a Duration can hold.
	for _, us := range []int64{1, 9, 10, 99, 999, 1000, 1001, 123456, 1e9 + 1, 1e12 + 7, 9223372036854775} {
		o := driver.Outcome{Err: errors.New("x"), Elapsed: time.Duration(us) * time.Microsecond}
		diffBytes(t, fmt.Sprintf("elapsed %dus", us), AppendOutcomeFrame(nil, 0, o, true), referenceFrame(0, o, true))
	}
}

// decodeBoth decodes data by the fast path and by encoding/json into fresh
// values of T and reports both.
func decodeBoth[T any](fast func([]byte, *T) error, data []byte) (got, want T, gotErr, wantErr error) {
	gotErr = fast(data, &got)
	wantErr = json.Unmarshal(data, &want)
	return
}

// TestDecodersMatchReference: over the same traffic, the walks accept
// everything the encoders write (no silent fallback on the hot path) and
// fill the structs exactly as encoding/json does.
func TestDecodersMatchReference(t *testing.T) {
	outs := oracleOutcomes(t)
	var recycled Frame
	for i, o := range outs {
		for _, loop := range []bool{true, false} {
			line := AppendOutcomeFrame(nil, i, o, loop)
			var want Frame
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatal(err)
			}
			if s := (scanner{b: line}); !s.frame(new(Frame)) || !s.end() {
				t.Fatalf("the walk declined a frame this package wrote:\n%s", line)
			}
			// Decoding into a frame that held another outcome must leave
			// no trace of it.
			if err := DecodeFrame(line, &recycled); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(recycled, want) {
				t.Fatalf("frame %d decodes differently:\n fast: %+v\n json: %+v", i, recycled, want)
			}
		}
	}
	for lo := 0; lo < len(outs); lo += 97 {
		batch := outs[lo:min(len(outs), lo+97)]
		jobs := make([]driver.Job, len(batch))
		for i, o := range batch {
			jobs[i] = o.Job
		}
		// The server still reads the two fields the client no longer sends.
		body, err := referenceSubmit(jobs, 2500, true)
		if err != nil {
			t.Fatal(err)
		}
		if s := (scanner{b: body}); !s.submit(new(SubmitRequest)) || !s.end() {
			t.Fatal("the walk declined a submit request a curl client could send")
		}
		got, want, gerr, werr := decodeBoth(DecodeSubmitRequest, body)
		if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("submit request at %d decodes differently (%v / %v)", lo, gerr, werr)
		}
		// Job by job, as the server admits it: every walk accepts.
		d, err := NewSubmitDecoder(body)
		for i := 0; err == nil && i < d.Len; i++ {
			_, err = d.Next()
		}
		if err != nil || !d.walked || d.Len != len(batch) {
			t.Fatalf("submit request at %d: the job-at-a-time walk declined (%v)", lo, err)
		}
		st := JobStatus{ID: "job-9", State: StateDone, NumJobs: len(batch), CreatedMS: 1, FinishedMS: 2}
		answer := AppendJobStatus(nil, &st, batch, lo%2 == 0)
		if s := (scanner{b: answer}); !s.status(new(JobStatus)) || !s.end() {
			t.Fatal("the walk declined a status this package wrote")
		}
		gotSt, wantSt, gerr, werr := decodeBoth(DecodeJobStatus, answer)
		if gerr != nil || werr != nil || !reflect.DeepEqual(gotSt, wantSt) {
			t.Fatalf("status at %d decodes differently (%v / %v)", lo, gerr, werr)
		}
	}
}

// irregularInputs are messages outside the walks' subset, each with a
// reason: the walk must decline and the answer must be encoding/json's —
// value or error string.
var irregularInputs = []struct{ why, frame string }{
	{"unknown key", `{"type":"outcome","index":1,"outcome":{"error":"x"},"extra":1}`},
	{"key in another case", `{"Type":"outcome","index":1,"outcome":{"error":"x"}}`},
	{"duplicate key", `{"type":"hello","type":"outcome","index":1,"outcome":{"error":"x"}}`},
	{"escaped key", `{"t\u0079pe":"outcome","index":1,"outcome":{"error":"x"}}`},
	{"null outcome", `{"type":"outcome","index":1,"outcome":null}`},
	{"null string", `{"type":null,"index":1}`},
	{"float index", `{"type":"outcome","index":1.0,"outcome":{"error":"x"}}`},
	{"exponent index", `{"type":"outcome","index":1e0,"outcome":{"error":"x"}}`},
	{"string index", `{"type":"outcome","index":"1","outcome":{"error":"x"}}`},
	{"overflowing index", `{"type":"outcome","index":99999999999999999999,"outcome":{"error":"x"}}`},
	{"leading zero", `{"type":"outcome","index":01,"outcome":{"error":"x"}}`},
	{"surrogate pair", `{"type":"outcome","index":1,"outcome":{"error":"\ud83d\ude00"}}`},
	{"lone surrogate", `{"type":"outcome","index":1,"outcome":{"error":"\ud83d"}}`},
	{"unknown escape", `{"type":"outcome","index":1,"outcome":{"error":"\q"}}`},
	{"invalid utf-8", "{\"type\":\"outcome\",\"index\":1,\"outcome\":{\"error\":\"\xff\"}}"},
	{"raw control byte", "{\"type\":\"outcome\",\"index\":1,\"outcome\":{\"error\":\"a\x01b\"}}"},
	{"trailing data", `{"type":"outcome","index":1,"outcome":{"error":"x"}} {}`},
	{"trailing comma", `{"type":"outcome","index":1,"outcome":{"error":"x"},}`},
	{"hello frame", `{"type":"hello","schema":3,"id":"job-1","total":4,"index":0}`},
	{"done frame", `{"type":"done","index":0,"state":"done","trace":{"spans":3,"tracks":1,"wall_ms":0.5}}`},
	{"hetero machine", `{"type":"outcome","index":0,"outcome":{"result":{"machine":{"config":"h","hetero":[[1,1,1],[1,1,1]]}}}}`},
	{"negative replica mask", `{"type":"outcome","index":0,"outcome":{"result":{"placement":{"home":[0],"replicas":[-0]}}}}`},
	{"bool as string", `{"type":"outcome","index":0,"outcome":{"cache_hit":"true"}}`},
	{"huge elapsed", `{"type":"outcome","index":0,"outcome":{"error":"x","elapsed_ms":1e999}}`},
	{"not an object", `[1,2,3]`},
	{"empty", ``},
	{"cut short", `{"type":"outcome","index":1,"outcome":{"err`},
}

func TestIrregularInputTakesTheReferencePath(t *testing.T) {
	for _, tc := range irregularInputs {
		data := []byte(tc.frame)
		if s := (scanner{b: data}); s.frame(new(Frame)) && s.end() {
			t.Errorf("%s: the walk accepted %s", tc.why, tc.frame)
			continue
		}
		got, want, gerr, werr := decodeBoth(DecodeFrame, data)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Errorf("%s: DecodeFrame error %v, encoding/json %v", tc.why, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: DecodeFrame value %+v, encoding/json %+v", tc.why, got, want)
		}
	}
	// Request and answer bodies come off a json.Decoder, which reads one
	// value and leaves what follows: the fallback keeps that too.
	var req SubmitRequest
	if err := DecodeSubmitRequest([]byte(`{"jobs":[],"timeout_ms":7} trailing`), &req); err != nil || req.TimeoutMS != 7 {
		t.Errorf("trailing data after a request body: %v, %+v", err, req)
	}
	var st JobStatus
	if err := DecodeJobStatus([]byte(`{"ID":"job-3","state":"done"}`), &st); err != nil || st.ID != "job-3" {
		t.Errorf("case-folded key in a status: %v, %+v", err, st)
	}
	var j Job
	if err := DecodeJob([]byte(`{"loop":"l","machine":null,"options":{}}`), &j); err != nil || j.Loop != "l" {
		t.Errorf("null machine in a job: %v, %+v", err, j)
	}
	if err := DecodeJob([]byte(`{"loop":`), &j); err == nil || err.Error() != "unexpected EOF" {
		t.Errorf("cut job body: %v", err)
	}
}

// TestRegularFormsTheWalksAccept: what other JSON writers produce for
// these messages — white space between tokens, keys in any order, \u
// escapes for non-ASCII, the solidus escape — stays on the fast path.
func TestRegularFormsTheWalksAccept(t *testing.T) {
	for _, in := range []string{
		"{ \"type\" : \"outcome\" ,\r\n \"index\" : 3 , \"outcome\" : { \"error\" : \"caf\\u00e9 \\/ \\n\" , \"elapsed_ms\" : 1.5e0 } }\n",
		`{"outcome":{"elapsed_ms":2,"cache_hit":false,"result":{"sc":1,"machine":{"clusters":4,"config":"4c2b2l64r"},"schedule":{"time":[],"ii":1},"placement":{"replicas":[],"home":[ ]}}},"index":0,"type":"outcome"}`,
		`{"type":"outcome","index":-0,"outcome":{}}`,
	} {
		data := []byte(in)
		if s := (scanner{b: data}); !s.frame(new(Frame)) || !s.end() {
			t.Errorf("the walk declined %s", in)
		}
		got, want, gerr, werr := decodeBoth(DecodeFrame, data)
		if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s decodes differently (%v / %v):\n fast: %+v\n json: %+v", in, gerr, werr, got, want)
		}
	}
}

// TestKeyTablesMatchTheSchema: the struct tags are the schema; the walks'
// key tables must list exactly the tagged fields, in order — less the
// fields a walk leaves to encoding/json on purpose.
func TestKeyTablesMatchTheSchema(t *testing.T) {
	for _, c := range []struct {
		table    []string
		schema   any
		declined []string
	}{
		{machineKeys, Machine{}, []string{"hetero"}},
		{optionsKeys, Options{}, nil},
		{jobKeys, Job{}, nil},
		{submitKeys, SubmitRequest{}, nil},
		{replicationKeys, ReplicationStats{}, nil},
		{increasesKeys, IIIncreases{}, nil},
		{placementKeys, Placement{}, nil},
		{scheduleKeys, Schedule{}, nil},
		{resultKeys, Result{}, nil},
		{outcomeKeys, Outcome{}, nil},
		{frameKeys, Frame{}, []string{"schema", "id", "total", "state", "error", "trace"}}, // hello and done frames
		{statusKeys, JobStatus{}, nil},
	} {
		var want []string
		typ := reflect.TypeOf(c.schema)
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			if name == "" {
				t.Fatalf("%s.%s has no json name", typ.Name(), typ.Field(i).Name)
			}
			declined := false
			for _, d := range c.declined {
				declined = declined || d == name
			}
			if !declined {
				want = append(want, name)
			}
		}
		if !reflect.DeepEqual(c.table, want) {
			t.Errorf("key table of %s is %v, the struct tags say %v", typ.Name(), c.table, want)
		}
	}
}

// OutcomeFrame builds the frame for one finished job.
func OutcomeFrame(index int, wo Outcome) Frame {
	return Frame{Type: FrameOutcome, Index: index, Outcome: &wo}
}
