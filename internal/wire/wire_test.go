package wire

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/workload"
)

// compileSample compiles a slice of real workload loops for one machine
// and option set.
func compileSample(t testing.TB, bench string, n int, m machine.Config, opts pipeline.Options) []driver.Outcome {
	t.Helper()
	loops := workload.LoopsFor(bench)
	if len(loops) < n {
		n = len(loops)
	}
	jobs := make([]driver.Job, n)
	for i := 0; i < n; i++ {
		jobs[i] = driver.Job{Graph: loops[i].Graph, Machine: m, Opts: opts}
	}
	outs, err := collect(driver.New(driver.Config{}), jobs)
	if err != nil {
		t.Fatal(err)
	}
	return outs
}

// collect compiles jobs on c and returns their outcomes index-aligned with
// them, and the batch's aggregate error.
func collect(c *driver.Compiler, jobs []driver.Job) ([]driver.Outcome, error) {
	outs := make([]driver.Outcome, len(jobs))
	for i, out := range c.Stream(context.Background(), jobs) {
		outs[i] = out
	}
	return outs, driver.AggregateError(outs)
}

// encodeResult is the struct form of res compiled under opts, its loop
// included.
func encodeResult(res *pipeline.Result, opts pipeline.Options) (*Result, error) {
	wo, err := EncodeOutcome(driver.Outcome{Job: driver.Job{Opts: opts}, Result: res})
	return wo.Result, err
}

// checkResultRoundTrip pushes one result through encode → JSON → decode →
// re-encode and asserts full fidelity: the re-encoded wire form is
// structurally identical, and the decoded schedule re-verifies with the
// same length, stage count and register pressure.
func checkResultRoundTrip(t *testing.T, res *pipeline.Result, opts pipeline.Options) {
	t.Helper()
	wr, err := encodeResult(res, opts)
	if err != nil {
		t.Fatalf("%s: encode: %v", res.Loop.Name, err)
	}
	blob, err := json.Marshal(wr)
	if err != nil {
		t.Fatalf("%s: marshal: %v", res.Loop.Name, err)
	}
	var wr2 Result
	if err := json.Unmarshal(blob, &wr2); err != nil {
		t.Fatalf("%s: unmarshal: %v", res.Loop.Name, err)
	}
	dec, err := wr2.decode(driver.Job{})
	if err != nil {
		t.Fatalf("%s: decode: %v", res.Loop.Name, err)
	}
	if dec.II != res.II || dec.MII != res.MII || dec.Length != res.Length || dec.SC != res.SC ||
		dec.Comms != res.Comms || dec.CommsBeforeReplication != res.CommsBeforeReplication ||
		dec.Replicated != res.Replicated || dec.Removed != res.Removed ||
		dec.ReplicationSteps != res.ReplicationSteps || dec.IIIncreases != res.IIIncreases {
		t.Fatalf("%s: scalar fields diverged across the wire", res.Loop.Name)
	}
	if dec.Loop.Fingerprint() != res.Loop.Fingerprint() {
		t.Fatalf("%s: loop fingerprint changed", res.Loop.Name)
	}
	if dec.Machine.Name != res.Machine.Name || dec.Machine.Clusters != res.Machine.Clusters {
		t.Fatalf("%s: machine changed: %v vs %v", res.Loop.Name, dec.Machine, res.Machine)
	}
	if !reflect.DeepEqual(dec.Schedule.MaxLive, res.Schedule.MaxLive) {
		t.Fatalf("%s: recomputed MaxLive %v differs from original %v",
			res.Loop.Name, dec.Schedule.MaxLive, res.Schedule.MaxLive)
	}
	if !reflect.DeepEqual(dec.Schedule.Time, res.Schedule.Time) {
		t.Fatalf("%s: issue times changed", res.Loop.Name)
	}
	// Round-trip guarantee: re-encoding the decoded result reproduces the
	// wire form byte-for-byte.
	wr3, err := encodeResult(dec, opts)
	if err != nil {
		t.Fatalf("%s: re-encode: %v", res.Loop.Name, err)
	}
	blob3, err := json.Marshal(wr3)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob3) != string(blob) {
		t.Fatalf("%s: re-encode not a fixed point:\n%s\nvs\n%s", res.Loop.Name, blob, blob3)
	}
}

func TestResultRoundTripAcrossModes(t *testing.T) {
	cases := []struct {
		bench string
		m     machine.Config
		opts  pipeline.Options
	}{
		{"tomcatv", machine.MustParse("4c2b2l64r"), pipeline.Options{Replicate: true}},
		{"mgrid", machine.MustParse("2c1b2l64r"), pipeline.Options{}},
		{"swim", machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true, LengthReplicate: true}},
		{"hydro2d", machine.MustParse("4c2b4l64r"), pipeline.Options{Replicate: true, ZeroBusLatency: true}},
		{"apsi", machine.Unified(64), pipeline.Options{}},
	}
	for _, c := range cases {
		for _, o := range compileSample(t, c.bench, 6, c.m, c.opts) {
			checkResultRoundTrip(t, o.Result, c.opts)
		}
	}
}

func TestResultRoundTripHeteroMachine(t *testing.T) {
	m, err := machine.NewHetero(2, 2, 32, [][ddg.NumClasses]int{{2, 2, 2}, {2, 2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range compileSample(t, "turb3d", 4, m, pipeline.Options{Replicate: true}) {
		checkResultRoundTrip(t, o.Result, pipeline.Options{Replicate: true})
	}
}

func TestJobRoundTrip(t *testing.T) {
	loops := workload.LoopsFor("wave5")
	j := driver.Job{
		Graph:   loops[0].Graph,
		Machine: machine.MustParse("4c2b2l64r"),
		Opts:    pipeline.Options{Replicate: true, MaxII: 40},
	}
	wj, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(wj)
	if err != nil {
		t.Fatal(err)
	}
	var wj2 Job
	if err := json.Unmarshal(blob, &wj2); err != nil {
		t.Fatal(err)
	}
	j2, err := wj2.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if j2.Graph.Fingerprint() != j.Graph.Fingerprint() {
		t.Fatal("graph changed across the wire")
	}
	if j2.Machine.Name != j.Machine.Name || j2.Opts != j.Opts {
		t.Fatalf("job identity changed: %v %+v", j2.Machine.Name, j2.Opts)
	}
	// The wire identity must agree with the driver's cache identity.
	if driver.JobKey(j2) != driver.JobKey(j) {
		t.Fatal("decoded job has a different cache key")
	}
}

// TestJobStrategyRoundTrip: the strategy name survives the wire and lands
// in the cache identity; the two strategies produce distinct keys for the
// same loop.
func TestJobStrategyRoundTrip(t *testing.T) {
	loops := workload.LoopsFor("wave5")
	keys := map[string]bool{}
	for _, strat := range []string{"paper", "uas"} {
		j := driver.Job{
			Graph:   loops[0].Graph,
			Machine: machine.MustParse("4c2b2l64r"),
			Opts:    pipeline.Options{Strategy: strat},
		}
		wj, err := EncodeJob(j)
		if err != nil {
			t.Fatal(err)
		}
		if wj.Schema != JobSchemaVersion {
			t.Fatalf("encoded job carries schema %d, want %d", wj.Schema, JobSchemaVersion)
		}
		blob, err := json.Marshal(wj)
		if err != nil {
			t.Fatal(err)
		}
		var wj2 Job
		if err := json.Unmarshal(blob, &wj2); err != nil {
			t.Fatal(err)
		}
		j2, err := wj2.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if j2.Opts.Strategy != strat {
			t.Fatalf("strategy %q became %q across the wire", strat, j2.Opts.Strategy)
		}
		keys[driver.JobKey(j2)] = true
	}
	if len(keys) != 2 {
		t.Fatalf("paper and uas jobs share a cache key: %v", keys)
	}
}

// TestJobDecodeTypedErrors: unknown strategies and too-new schemas must
// fail with their typed errors; the legacy schema (no schema field) still
// decodes as the default strategy, and a negative max_ii reaches the
// pipeline's own check.
func TestJobDecodeTypedErrors(t *testing.T) {
	loops := workload.LoopsFor("wave5")
	j := driver.Job{Graph: loops[0].Graph, Machine: machine.MustParse("4c2b2l64r")}
	wj, err := EncodeJob(j)
	if err != nil {
		t.Fatal(err)
	}

	unknown := wj
	unknown.Options.Strategy = "quantum"
	if _, err := unknown.Decode(); err == nil {
		t.Fatal("unknown strategy decoded cleanly")
	} else if ue, ok := err.(*pipeline.UnknownStrategyError); !ok || ue.Name != "quantum" {
		t.Fatalf("want *pipeline.UnknownStrategyError{quantum}, got %T: %v", err, err)
	}

	future := wj
	future.Schema = JobSchemaVersion + 1
	if _, err := future.Decode(); err == nil {
		t.Fatal("future schema decoded cleanly")
	} else if se, ok := err.(*SchemaError); !ok || se.Got != JobSchemaVersion+1 || se.Max != JobSchemaVersion {
		t.Fatalf("want *SchemaError, got %T: %v", err, err)
	}

	legacy := wj
	legacy.Schema = 0 // a pre-strategy client's request
	j2, err := legacy.Decode()
	if err != nil {
		t.Fatalf("legacy schema rejected: %v", err)
	}
	if j2.Opts.StrategyName() != pipeline.DefaultStrategy {
		t.Fatalf("legacy job resolved to strategy %q", j2.Opts.StrategyName())
	}

	// options.max_ii is not vetted by the codec: a negative bound travels
	// and is refused at the pipeline's one door, by name.
	negative := wj
	negative.Options.MaxII = -5
	j3, err := negative.Decode()
	if err != nil {
		t.Fatalf("negative max_ii rejected by the codec: %v", err)
	}
	if _, err := pipeline.Compile(j3.Graph, j3.Machine, j3.Opts); err == nil || err.Error() != "pipeline: MaxII must be ≥ 0" {
		t.Fatalf("negative max_ii compiled to %v", err)
	}
}

// TestResultDecodeRejectsUnknownStrategy: a persisted result naming a
// strategy this build lacks reads as a decode failure (a cache miss), not
// a wrong answer.
func TestResultDecodeRejectsUnknownStrategy(t *testing.T) {
	outs := compileSample(t, "mgrid", 1, machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true})
	wr, err := encodeResult(outs[0].Result, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	alien := *wr
	alien.Options.Strategy = "from-the-future"
	if _, err := alien.decode(driver.Job{}); err == nil {
		t.Fatal("alien-strategy result decoded cleanly")
	} else if _, ok := err.(*pipeline.UnknownStrategyError); !ok {
		t.Fatalf("want *pipeline.UnknownStrategyError, got %T: %v", err, err)
	}
}

// TestResultRoundTripRivalStrategies: results compiled under the rival
// strategies round-trip with full fidelity like paper-chain ones.
func TestResultRoundTripRivalStrategies(t *testing.T) {
	for _, strat := range []string{"uas", "moddist", "unified"} {
		opts := pipeline.Options{Strategy: strat}
		for _, o := range compileSample(t, "tomcatv", 3, machine.MustParse("4c2b2l64r"), opts) {
			checkResultRoundTrip(t, o.Result, opts)
		}
	}
}

// TestMachineDecodeFromBareConfig: hand-written requests carry only the
// config string.
func TestMachineDecodeFromBareConfig(t *testing.T) {
	m, err := Machine{Config: "4c2b2l64r"}.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if m.Clusters != 4 || m.Buses != 2 || m.Regs != 16 {
		t.Fatalf("bare config decoded to %+v", m)
	}
	if _, err := (Machine{}).Decode(); err == nil {
		t.Fatal("empty machine accepted")
	}
	if _, err := (Machine{Config: "bogus"}).Decode(); err == nil {
		t.Fatal("bogus config accepted")
	}
}

// TestUnifiedNonDefaultRegsRoundTrip: "unified" names every register
// budget, so the structured fields must carry it.
func TestUnifiedNonDefaultRegsRoundTrip(t *testing.T) {
	m := machine.Unified(128)
	m2, err := encodeMachine(m).Decode()
	if err != nil {
		t.Fatal(err)
	}
	if m2.Regs != 128 {
		t.Fatalf("unified 128r decoded to %d regs", m2.Regs)
	}
}

func TestOutcomeRoundTripError(t *testing.T) {
	wo, err := EncodeOutcome(driver.Outcome{Err: &RemoteError{Msg: "loop does not schedule"}, CacheHit: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := wo.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if o.Err == nil || o.Err.Error() != "loop does not schedule" || !o.CacheHit {
		t.Fatalf("error outcome mangled: %+v", o)
	}
	if _, err := (Outcome{}).Decode(); err == nil {
		t.Fatal("empty outcome accepted")
	}
}

// TestOutcomeElapsedRoundTrip pins the additive elapsed_ms field: a
// compile duration survives the wire (at millisecond-fraction precision)
// and a zero duration stays off the wire entirely.
func TestOutcomeElapsedRoundTrip(t *testing.T) {
	outs := compileSample(t, "mgrid", 1, machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true})
	out := outs[0]
	out.Elapsed = 1500 * time.Microsecond
	wo, err := EncodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	if wo.ElapsedMS != 1.5 {
		t.Fatalf("elapsed_ms = %v, want 1.5", wo.ElapsedMS)
	}
	dec, err := wo.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if dec.Elapsed != out.Elapsed {
		t.Fatalf("Elapsed round-tripped to %v, want %v", dec.Elapsed, out.Elapsed)
	}

	out.Elapsed = 0
	wo, err = EncodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(wo)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "elapsed_ms") {
		t.Fatalf("zero elapsed serialized: %s", blob)
	}
}

// TestDecodeRejectsTamperedSchedule: a schedule whose times violate a
// dependence must not decode — the codec re-verifies, it does not trust.
func TestDecodeRejectsTamperedSchedule(t *testing.T) {
	outs := compileSample(t, "mgrid", 1, machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true})
	wr, err := encodeResult(outs[0].Result, pipeline.Options{Replicate: true})
	if err != nil {
		t.Fatal(err)
	}
	tampered := *wr
	tampered.Schedule = &Schedule{II: wr.Schedule.II, Time: append([]int(nil), wr.Schedule.Time...)}
	// Push every instance to cycle 0: dependences and resources collapse.
	for i := range tampered.Schedule.Time {
		tampered.Schedule.Time[i] = 0
	}
	if _, err := tampered.decode(driver.Job{}); err == nil {
		t.Fatal("tampered schedule decoded cleanly")
	}

	truncated := *wr
	truncated.Schedule = &Schedule{II: wr.Schedule.II, Time: wr.Schedule.Time[:1]}
	if _, err := truncated.decode(driver.Job{}); err == nil {
		t.Fatal("truncated time vector decoded cleanly")
	}

	misplaced := *wr
	misplaced.Placement = &Placement{
		Home:     append([]int(nil), wr.Placement.Home...),
		Replicas: append([]uint32(nil), wr.Placement.Replicas...),
	}
	misplaced.Placement.Home[0] = 99
	if _, err := misplaced.decode(driver.Job{}); err == nil {
		t.Fatal("out-of-range home cluster decoded cleanly")
	}

	// A non-positive II must error, not panic (Adopt divides by it).
	for _, ii := range []int{0, -1} {
		bad := *wr
		bad.Schedule = &Schedule{II: ii, Time: append([]int(nil), wr.Schedule.Time...)}
		if _, err := bad.decode(driver.Job{}); err == nil {
			t.Fatalf("II=%d decoded cleanly", ii)
		}
	}
}

// lyingOutcome is a real outcome frame of the sample with its schedule's II
// and the result's headline swapped for claimed values.
func lyingOutcome(t *testing.T, claim func(wr *Result)) (line []byte, job driver.Job) {
	t.Helper()
	out := compileSample(t, "mgrid", 1, machine.MustParse("4c1b2l64r"), pipeline.Options{Replicate: true})[0]
	wo, err := EncodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	claim(wo.Result)
	line, err = json.Marshal(OutcomeFrame(0, wo))
	if err != nil {
		t.Fatal(err)
	}
	return line, out.Job
}

// TestDecodeRefusesUnboundedII: the proof sizes its tables by the II, so an
// II no search could have reached must be refused before anything is
// proven — on HEAD~ a 100-byte lie ended the process with "fatal error:
// runtime: out of memory". 1<<62 also overflows the K·II product. Both
// decode paths, the struct form and the walk, refuse alike, and so does a
// max_ii that vouches for the lie.
func TestDecodeRefusesUnboundedII(t *testing.T) {
	for _, ii := range []int{1 << 40, 1 << 62} {
		for _, vouch := range []bool{false, true} {
			line, job := lyingOutcome(t, func(wr *Result) {
				wr.II, wr.Schedule.II = ii, ii
				if vouch {
					wr.Options.MaxII = ii
				}
			})
			var viaJSON, viaWalk Frame
			if err := json.Unmarshal(line, &viaJSON); err != nil {
				t.Fatal(err)
			}
			// 1<<40 stays on the walk; 1<<62 has more digits than the walk
			// takes and reaches the same refusal through the fallback.
			if s := (scanner{b: line}); s.frame(new(Frame)) != (ii == 1<<40) {
				t.Fatalf("II=%d: unexpected path through the fast decoder", ii)
			}
			if err := DecodeFrame(line, &viaWalk); err != nil {
				t.Fatal(err)
			}
			for path, f := range map[string]Frame{"Outcome.Decode": viaJSON, "fast decoder": viaWalk} {
				_, err := f.Outcome.Decode()
				var claim *IIClaimError
				if !errors.As(err, &claim) || claim.II != ii || claim.Max >= ii {
					t.Errorf("%s, II=%d (max_ii vouching: %v): want *IIClaimError, got %T: %v", path, ii, vouch, err, err)
				}
				// The same refusal when the loop is the reader's own.
				f.Outcome.Result.Loop = ""
				if _, err := f.Outcome.DecodeFor(job); !errors.As(err, &claim) {
					t.Errorf("%s, II=%d, loop left out: want *IIClaimError, got %T: %v", path, ii, err, err)
				}
			}
		}
	}
	// The ceiling is the search's: one past what MaxII allows is refused,
	// the honest result is not.
	line, _ := lyingOutcome(t, func(wr *Result) { wr.Options.MaxII = wr.II - 1 })
	var f Frame
	if err := DecodeFrame(line, &f); err != nil {
		t.Fatal(err)
	}
	var claim *IIClaimError
	if _, err := f.Outcome.Decode(); !errors.As(err, &claim) {
		t.Errorf("II above the job's own max_ii: want *IIClaimError, got %v", err)
	}
	line, _ = lyingOutcome(t, func(*Result) {})
	if err := DecodeFrame(line, &f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Outcome.Decode(); err != nil {
		t.Errorf("the honest outcome no longer decodes: %v", err)
	}
}

// TestDecodeRefusesLyingHeadline: "a decoded Result is proven" covers the
// headline too. "ii":17,"mii":-3 around a verified II-10 schedule once
// decoded without error, and so did a "comms" the proven placement does not
// recompute to.
func TestDecodeRefusesLyingHeadline(t *testing.T) {
	cases := map[string]func(wr *Result){
		"ii above the schedule's": func(wr *Result) { wr.II = wr.Schedule.II + 7 },
		"ii below the schedule's": func(wr *Result) { wr.II = wr.Schedule.II - 1 },
		"negative mii":            func(wr *Result) { wr.MII = -3 },
		"zero mii":                func(wr *Result) { wr.MII = 0 },
		"mii above ii":            func(wr *Result) { wr.MII = wr.II + 1 },
		"comms+1":                 func(wr *Result) { wr.Comms++ },
	}
	for name, claim := range cases {
		line, job := lyingOutcome(t, claim)
		var viaJSON, viaWalk Frame
		if err := json.Unmarshal(line, &viaJSON); err != nil {
			t.Fatal(err)
		}
		if s := (scanner{b: line}); !s.frame(&viaWalk) || !s.end() {
			t.Fatal("the walk declined a regular frame")
		}
		for path, f := range map[string]Frame{"Outcome.Decode": viaJSON, "fast decoder": viaWalk} {
			if out, err := f.Outcome.DecodeFor(job); err == nil {
				t.Errorf("%s, %s: decoded to II=%d sched.II=%d MII=%d", path, name, out.Result.II, out.Result.Schedule.II, out.Result.MII)
			}
		}
	}
}

// TestDecodeForAdoptsTheJobsGraph: a result that left its loop out decodes
// onto the very graph the reader submitted; one that carries it is parsed;
// without either there is nothing to prove against.
func TestDecodeForAdoptsTheJobsGraph(t *testing.T) {
	out := compileSample(t, "tomcatv", 1, machine.MustParse("4c2b2l64r"), pipeline.Options{Replicate: true})[0]
	var f Frame
	if err := DecodeFrame(AppendOutcomeFrame(nil, 0, out, false), &f); err != nil {
		t.Fatal(err)
	}
	dec, err := f.Outcome.DecodeFor(out.Job)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Result.Loop != out.Job.Graph || dec.Job.Graph != out.Job.Graph {
		t.Error("a loop-less result was not decoded onto the job's own graph")
	}
	if !reflect.DeepEqual(dec.Result.Schedule.Time, out.Result.Schedule.Time) {
		t.Error("issue times changed across the wire")
	}
	if _, err := f.Outcome.Decode(); err == nil || !strings.Contains(err.Error(), "carries no loop") {
		t.Errorf("a loop-less result decoded without a job: %v", err)
	}
	// A server that ignores loop=0 echoes the loop: still decodes, onto a
	// parsed copy.
	if err := DecodeFrame(AppendOutcomeFrame(nil, 0, out, true), &f); err != nil {
		t.Fatal(err)
	}
	echoed, err := f.Outcome.DecodeFor(out.Job)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.Result.Loop == out.Job.Graph || echoed.Result.Loop.Fingerprint() != out.Job.Graph.Fingerprint() {
		t.Error("an echoed loop was not parsed as sent")
	}
	// And one that answers for a different loop is caught by the proof, not
	// trusted: the placement no longer fits.
	other := compileSample(t, "swim", 3, machine.MustParse("4c2b2l64r"), pipeline.Options{Replicate: true})[2]
	if other.Job.Graph.NumNodes() != out.Job.Graph.NumNodes() {
		if err := DecodeFrame(AppendOutcomeFrame(nil, 0, out, false), &f); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Outcome.DecodeFor(other.Job); err == nil {
			t.Error("a result for another loop decoded onto this job")
		}
	}
}
