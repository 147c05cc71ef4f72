// Package wire is the serialization codec of the compilation service: it
// moves jobs and outcomes across process boundaries and onto disk. Loops
// ride the ddg text format, machines their structured config, and results
// a JSON form with a compact schedule encoding (the issue-time vector at a
// fixed II — everything else about a schedule is recomputed and
// re-verified on decode, so a decoded Result is not merely parsed but
// proven: Result.Decode refuses a headline the search could not have
// produced, then rebuilds the instance graph from the placement and adopts
// the times through the scheduler's own validator, sched.Prove).
//
// The struct types below, with their tags, are the schema; encoding/json
// over them is the reference codec, the fallback, and the DiskCache form.
// The messages that cross the wire once per job have a hand-written fast
// path held to that reference: append.go encodes, scan.go decodes.
//
// The package sits above internal/driver (it encodes driver Jobs and
// Outcomes) and below internal/service (queue server, persistent cache)
// and the HTTP client in the root package.
package wire

import (
	"errors"
	"fmt"
	"time"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
	"clusched/internal/sched"
)

// JobSchemaVersion is the current job wire-schema version. Version 2
// introduced the schema field itself and the strategy option; version 0
// (the field absent) is the pre-strategy schema and decodes as the default
// strategy. Decoders reject schemas newer than they understand with a
// typed *SchemaError rather than silently dropping fields.
const JobSchemaVersion = 2

// SchemaError reports a payload (a job, or a stream hello frame) whose
// schema version is newer than this build understands.
type SchemaError struct {
	// Got is the payload's schema version; Max the newest this build
	// decodes.
	Got, Max int
}

// Error implements error.
func (e *SchemaError) Error() string {
	return fmt.Sprintf("wire: schema version %d is newer than supported %d", e.Got, e.Max)
}

// Options mirrors pipeline.Options with stable JSON names.
type Options struct {
	// Strategy names the scheduling strategy (empty = the default, "paper").
	// Decoding rejects names this build has not registered with a typed
	// *pipeline.UnknownStrategyError.
	Strategy               string `json:"strategy,omitempty"`
	Replicate              bool   `json:"replicate,omitempty"`
	LengthReplicate        bool   `json:"length_replicate,omitempty"`
	ZeroBusLatency         bool   `json:"zero_bus_latency,omitempty"`
	UseMacroReplication    bool   `json:"macro_replication,omitempty"`
	MaxII                  int    `json:"max_ii,omitempty"`
	IgnoreRegisterPressure bool   `json:"ignore_register_pressure,omitempty"`
	VerifySchedules        bool   `json:"verify_schedules,omitempty"`
}

// EncodeOptions converts pipeline options to their wire form.
func EncodeOptions(o pipeline.Options) Options {
	return Options{
		Strategy:               o.Strategy,
		Replicate:              o.Replicate,
		LengthReplicate:        o.LengthReplicate,
		ZeroBusLatency:         o.ZeroBusLatency,
		UseMacroReplication:    o.UseMacroReplication,
		MaxII:                  o.MaxII,
		IgnoreRegisterPressure: o.IgnoreRegisterPressure,
		VerifySchedules:        o.VerifySchedules,
	}
}

// Decode converts the wire options back to pipeline options. It does not
// validate the strategy; Job.Decode and Result.Decode do, so both request
// and cache paths reject unknown names with the typed error.
func (o Options) Decode() pipeline.Options {
	return pipeline.Options{
		Strategy:               o.Strategy,
		Replicate:              o.Replicate,
		LengthReplicate:        o.LengthReplicate,
		ZeroBusLatency:         o.ZeroBusLatency,
		UseMacroReplication:    o.UseMacroReplication,
		MaxII:                  o.MaxII,
		IgnoreRegisterPressure: o.IgnoreRegisterPressure,
		VerifySchedules:        o.VerifySchedules,
	}
}

// validateStrategy rejects unregistered strategy names with the pipeline's
// typed error.
func (o Options) validateStrategy() error {
	if !pipeline.KnownStrategy(o.Strategy) {
		return &pipeline.UnknownStrategyError{Name: o.Strategy}
	}
	return nil
}

// Machine is the wire form of a machine configuration. Hand-written
// requests may carry only Config (a wcxbylzr string or "unified");
// encoded machines additionally carry the structured fields, which win on
// decode — they cover the configurations a name alone cannot, such as
// heterogeneous FU matrices and unified machines with non-default
// register files.
type Machine struct {
	Config string `json:"config"`
	// Clusters, Buses, BusLatency and RegsPerCluster reconstruct machines
	// whose name is not a parseable config string.
	Clusters       int `json:"clusters,omitempty"`
	Buses          int `json:"buses,omitempty"`
	BusLatency     int `json:"bus_latency,omitempty"`
	RegsPerCluster int `json:"regs_per_cluster,omitempty"`
	// Hetero is the per-cluster FU matrix of heterogeneous machines.
	Hetero [][ddg.NumClasses]int `json:"hetero,omitempty"`
}

// EncodeMachine converts a machine config to its wire form.
func EncodeMachine(m machine.Config) Machine {
	return Machine{
		Config:         m.Name,
		Clusters:       m.Clusters,
		Buses:          m.Buses,
		BusLatency:     m.BusLatency,
		RegsPerCluster: m.Regs,
		Hetero:         m.Hetero,
	}
}

// is reports whether wm is, field for field, the wire form of m, a machine
// (not the zero Config): a reader that holds m may then use it for wm
// instead of decoding an equal one. Heterogeneous machines never qualify:
// their matrix is not comparable.
func (wm Machine) is(m machine.Config) bool {
	return m.Clusters > 0 && wm.Hetero == nil && m.Hetero == nil && wm.Config == m.Name && wm.Clusters == m.Clusters &&
		wm.Buses == m.Buses && wm.BusLatency == m.BusLatency && wm.RegsPerCluster == m.Regs
}

// Decode reconstructs the machine config.
func (wm Machine) Decode() (machine.Config, error) {
	switch {
	case wm.Hetero != nil:
		return machine.NewHetero(wm.Buses, wm.BusLatency, wm.RegsPerCluster, wm.Hetero)
	case wm.Clusters == 1:
		if wm.RegsPerCluster <= 0 {
			return machine.Config{}, fmt.Errorf("wire: unified machine needs a positive register count")
		}
		return machine.Unified(wm.RegsPerCluster), nil
	case wm.Clusters > 1:
		return machine.New(wm.Clusters, wm.Buses, wm.BusLatency, wm.RegsPerCluster*wm.Clusters)
	case wm.Config != "":
		return machine.Parse(wm.Config)
	}
	return machine.Config{}, fmt.Errorf("wire: empty machine")
}

// Job is one compilation request on the wire.
type Job struct {
	// Schema is the job schema version (JobSchemaVersion for encoders;
	// absent/0 means the pre-strategy legacy schema, which still decodes).
	Schema int `json:"schema,omitempty"`
	// Loop is the loop body in the ddg text format.
	Loop    string  `json:"loop"`
	Machine Machine `json:"machine"`
	Options Options `json:"options"`
}

// EncodeJob converts a driver job to its wire form.
func EncodeJob(j driver.Job) (Job, error) {
	text, err := ddg.MarshalText(j.Graph)
	if err != nil {
		return Job{}, err
	}
	return Job{Schema: JobSchemaVersion, Loop: text, Machine: EncodeMachine(j.Machine), Options: EncodeOptions(j.Opts)}, nil
}

// Decode reconstructs the driver job, validating the schema version, the
// loop and the strategy. Unknown strategies and too-new schemas fail with
// typed errors (*pipeline.UnknownStrategyError, *SchemaError), so servers
// can answer them distinctly from malformed requests.
func (wj Job) Decode() (driver.Job, error) {
	return wj.decode(machine.Config{})
}

// decode is Decode after a job of the same request whose machine decoded to
// prev: a wire form that repeats is not decoded twice.
func (wj Job) decode(prev machine.Config) (driver.Job, error) {
	if wj.Schema > JobSchemaVersion {
		return driver.Job{}, &SchemaError{Got: wj.Schema, Max: JobSchemaVersion}
	}
	if err := wj.Options.validateStrategy(); err != nil {
		return driver.Job{}, err
	}
	g, err := ddg.ParseOneString(wj.Loop)
	if err != nil {
		return driver.Job{}, err
	}
	if !wj.Machine.is(prev) {
		if prev, err = wj.Machine.Decode(); err != nil {
			return driver.Job{}, err
		}
	}
	return driver.Job{Graph: g, Machine: prev, Opts: wj.Options.Decode()}, nil
}

// DecodeJobs decodes the jobs of one request; an error names its job.
func DecodeJobs(wjs []Job) ([]driver.Job, error) {
	jobs := make([]driver.Job, len(wjs))
	var prev machine.Config
	for i, wj := range wjs {
		j, err := wj.decode(prev)
		if err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		jobs[i], prev = j, j.Machine
	}
	return jobs, nil
}

// ReplicationStats is the per-class replication accounting of a result
// (Result.Replicated / Removed / ReplicationSteps flattened to named
// fields).
type ReplicationStats struct {
	ReplicatedInt int `json:"replicated_int,omitempty"`
	ReplicatedFP  int `json:"replicated_fp,omitempty"`
	ReplicatedMem int `json:"replicated_mem,omitempty"`
	Removed       int `json:"removed,omitempty"`
	Steps         int `json:"steps,omitempty"`
}

// IIIncreases is the Fig. 1 cause tally of a result.
type IIIncreases struct {
	Bus         int `json:"bus,omitempty"`
	Recurrences int `json:"recurrences,omitempty"`
	Registers   int `json:"registers,omitempty"`
}

// Placement is the wire form of a sched.Placement: per-node home clusters
// and replica cluster sets (bitmasks).
type Placement struct {
	Home     []int    `json:"home"`
	Replicas []uint32 `json:"replicas"`
}

// Schedule is the compact wire form of a modulo schedule: the II and the
// issue-time vector over the placement's instance enumeration (original
// instances in node order, then copy instances in node order — the order
// sched.BuildIGraph materializes). Length, stage count and register
// pressure are recomputed on decode; the times are re-verified against
// the rebuilt instance graph.
type Schedule struct {
	II   int   `json:"ii"`
	Time []int `json:"time"`
}

// Result is a compiled loop on the wire.
type Result struct {
	// Loop is the loop body in the ddg text format. A reader that holds
	// the job may ask the server to leave it out (loop=0): an absent loop
	// means the job's.
	Loop    string  `json:"loop,omitempty"`
	Machine Machine `json:"machine"`
	// Options records the pipeline variant that produced the result; the
	// decoder needs it to rebuild the schedule under the same rules.
	Options     Options          `json:"options"`
	MII         int              `json:"mii"`
	II          int              `json:"ii"`
	Length      int              `json:"length"`
	SC          int              `json:"sc"`
	CommsBefore int              `json:"comms_before_replication"`
	Comms       int              `json:"comms"`
	Replication ReplicationStats `json:"replication"`
	IIIncreases IIIncreases      `json:"ii_increases"`
	Placement   *Placement       `json:"placement,omitempty"`
	Schedule    *Schedule        `json:"schedule,omitempty"`
}

// EncodeResult converts a compilation result to its wire form. opts must
// be the options the result was compiled under (a Result does not carry
// them; driver Outcomes do, via their Job).
func EncodeResult(r *pipeline.Result, opts pipeline.Options) (*Result, error) {
	text, err := ddg.MarshalText(r.Loop)
	if err != nil {
		return nil, err
	}
	wr := &Result{
		Loop:        text,
		Machine:     EncodeMachine(r.Machine),
		Options:     EncodeOptions(opts),
		MII:         r.MII,
		II:          r.II,
		Length:      r.Length,
		SC:          r.SC,
		CommsBefore: r.CommsBeforeReplication,
		Comms:       r.Comms,
		Replication: ReplicationStats{
			ReplicatedInt: r.Replicated[ddg.ClassInt],
			ReplicatedFP:  r.Replicated[ddg.ClassFP],
			ReplicatedMem: r.Replicated[ddg.ClassMem],
			Removed:       r.Removed,
			Steps:         r.ReplicationSteps,
		},
		IIIncreases: IIIncreases{
			Bus:         r.IIIncreases[pipeline.CauseBus],
			Recurrences: r.IIIncreases[pipeline.CauseRecurrence],
			Registers:   r.IIIncreases[pipeline.CauseRegisters],
		},
	}
	if r.Placement != nil {
		wr.Placement = &Placement{
			Home:     append([]int(nil), r.Placement.Home...),
			Replicas: make([]uint32, len(r.Placement.Replicas)),
		}
		for i, s := range r.Placement.Replicas {
			wr.Placement.Replicas[i] = uint32(s)
		}
	}
	if r.Schedule != nil {
		wr.Schedule = &Schedule{II: r.Schedule.II, Time: append([]int(nil), r.Schedule.Time...)}
	}
	return wr, nil
}

// IIClaimError reports a result whose schedule claims an initiation
// interval no search could have produced: below 1, or above the ceiling
// the search itself stops at. It is refused before anything is sized by
// the claimed number.
type IIClaimError struct {
	// Loop names the loop; II is the claimed interval, Max the ceiling.
	Loop    string
	II, Max int
}

// Error implements error.
func (e *IIClaimError) Error() string {
	if e.II < 1 {
		return fmt.Sprintf("wire: schedule for %s claims II=%d", e.Loop, e.II)
	}
	return fmt.Sprintf("wire: schedule for %s claims II=%d, above the search ceiling %d", e.Loop, e.II, e.Max)
}

// maxProvableII caps the II a result may claim whatever its loop, machine
// and options say: those are claimed numbers too (an edge latency, a bus
// latency, max_ii), and the proof's tables have a row per II slot. No honest
// schedule comes near it — at a million cycles per iteration the search
// would not have finished.
const maxProvableII = 1 << 20

// iiCeiling bounds the II a result for g on m under opts can carry: MaxII
// when the job set one, else the search's own automatic bound taken from an
// MII no recomputation is needed for — ResMII is at most the node count
// and RecMII at most the latency on all edges together.
func iiCeiling(g *ddg.Graph, m machine.Config, opts pipeline.Options) int {
	if opts.MaxII > 0 {
		return min(opts.MaxII, maxProvableII)
	}
	lower := g.NumNodes()
	for i := range g.Edges {
		if lower += max(g.Edges[i].Lat, 0); lower < 0 || lower > maxProvableII {
			return maxProvableII
		}
	}
	if bound := pipeline.MaxII(g, m, lower); 0 < bound && bound < maxProvableII {
		return bound
	}
	return maxProvableII
}

// Decode reconstructs the full compilation result from a wire form that
// carries its loop. The schedule is not trusted: the decoder refuses a
// headline that contradicts itself or the search's own bounds, rebuilds
// the instance graph from the placement and adopts the issue times through
// sched.Prove, which re-verifies every dependence and resource constraint
// and recomputes length, stage count and register pressure. A Result that
// decodes without error is therefore a valid schedule, not just valid JSON.
func (wr *Result) Decode() (*pipeline.Result, error) {
	return wr.decode(driver.Job{})
}

// decode is Decode for a result of job j (the zero Job when the reader
// holds none): a wire form without its loop is a result for j.Graph itself,
// which is then adopted as is — the graph the caller submitted, as a local
// backend would return it — and so is j.Machine when the wire form names
// it. A loop that is present is parsed and validated.
func (wr *Result) decode(j driver.Job) (*pipeline.Result, error) {
	g := j.Graph
	if err := wr.Options.validateStrategy(); err != nil {
		// A cache entry from a build with strategies this one lacks: reads
		// as a decode failure (persistent caches treat it as a miss).
		return nil, err
	}
	switch {
	case wr.Loop != "":
		var err error
		if g, err = ddg.ParseOneString(wr.Loop); err != nil {
			return nil, fmt.Errorf("wire: result loop: %w", err)
		}
	case g == nil:
		return nil, fmt.Errorf("wire: result carries no loop and the reader holds no job to take it from")
	}
	m := j.Machine
	if !wr.Machine.is(m) {
		var err error
		if m, err = wr.Machine.Decode(); err != nil {
			return nil, fmt.Errorf("wire: result machine: %w", err)
		}
	}
	res := &pipeline.Result{
		Loop:                   g,
		Machine:                m,
		MII:                    wr.MII,
		II:                     wr.II,
		Length:                 wr.Length,
		SC:                     wr.SC,
		CommsBeforeReplication: wr.CommsBefore,
		Comms:                  wr.Comms,
		Removed:                wr.Replication.Removed,
		ReplicationSteps:       wr.Replication.Steps,
	}
	res.Replicated[ddg.ClassInt] = wr.Replication.ReplicatedInt
	res.Replicated[ddg.ClassFP] = wr.Replication.ReplicatedFP
	res.Replicated[ddg.ClassMem] = wr.Replication.ReplicatedMem
	res.IIIncreases[pipeline.CauseBus] = wr.IIIncreases.Bus
	res.IIIncreases[pipeline.CauseRecurrence] = wr.IIIncreases.Recurrences
	res.IIIncreases[pipeline.CauseRegisters] = wr.IIIncreases.Registers

	if wr.Placement == nil || wr.Schedule == nil {
		return nil, fmt.Errorf("wire: result for %s lacks placement or schedule", g.Name)
	}
	if len(wr.Placement.Home) != g.NumNodes() || len(wr.Placement.Replicas) != g.NumNodes() {
		return nil, fmt.Errorf("wire: placement size does not match loop %s (%d nodes)", g.Name, g.NumNodes())
	}
	for v, home := range wr.Placement.Home {
		if home < 0 || home >= m.Clusters {
			return nil, fmt.Errorf("wire: node %d home cluster %d out of range", v, home)
		}
		if max := uint64(1)<<uint(m.Clusters) - 1; uint64(wr.Placement.Replicas[v])&^max != 0 {
			return nil, fmt.Errorf("wire: node %d replica set names clusters beyond %d", v, m.Clusters)
		}
	}
	opts := wr.Options.Decode()
	// The proof sizes its tables by the II: bound the claim first, so a
	// lying server or a corrupt cache entry gets an error, not the
	// process's memory.
	if ii, max := wr.Schedule.II, iiCeiling(g, m, opts); ii < 1 || ii > max {
		return nil, &IIClaimError{Loop: g.Name, II: ii, Max: max}
	}
	if wr.II != wr.Schedule.II {
		return nil, fmt.Errorf("wire: result for %s claims II=%d around a schedule at II=%d", g.Name, wr.II, wr.Schedule.II)
	}
	if wr.MII < 1 || wr.MII > wr.II {
		return nil, fmt.Errorf("wire: result for %s claims MII=%d outside [1, II=%d]", g.Name, wr.MII, wr.II)
	}
	s, err := sched.Prove(g, m, opts.ZeroBusLatency, wr.Schedule.II,
		sched.Options{SkipRegisterCheck: opts.IgnoreRegisterPressure},
		func(home []int, replicas []sched.ClusterSet) error {
			copy(home, wr.Placement.Home)
			for v, set := range wr.Placement.Replicas {
				replicas[v] = sched.ClusterSet(set)
			}
			return nil
		},
		func(*sched.IGraph, []int) ([]int, error) { return wr.Schedule.Time, nil })
	if err != nil {
		var unproven *sched.Error
		if errors.As(err, &unproven) {
			return nil, fmt.Errorf("wire: schedule for %s does not verify: %w", g.Name, err)
		}
		return nil, fmt.Errorf("wire: rebuilding instance graph for %s: %w", g.Name, err)
	}
	if s.Length != wr.Length || s.SC != wr.SC {
		return nil, fmt.Errorf("wire: schedule for %s recomputes to length %d/%d stages against claimed %d/%d",
			g.Name, s.Length, s.SC, wr.Length, wr.SC)
	}
	res.Schedule, res.Placement = s, s.IG.P
	return res, nil
}

// Outcome is one driver outcome on the wire: exactly one of Result and
// Error is set. It does not repeat the job — batch outcomes are
// index-aligned with their submitted jobs.
type Outcome struct {
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	// ElapsedMS is the wall time of the real compilation behind this
	// outcome, in milliseconds; absent for cached outcomes.
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
}

// EncodeOutcome converts a driver outcome to its wire form.
func EncodeOutcome(o driver.Outcome) (Outcome, error) {
	wo := Outcome{CacheHit: o.CacheHit}
	if o.Elapsed > 0 {
		wo.ElapsedMS = float64(o.Elapsed.Microseconds()) / 1e3
	}
	if o.Err != nil {
		wo.Error = o.Err.Error()
		return wo, nil
	}
	wr, err := EncodeResult(o.Result, o.Job.Opts)
	if err != nil {
		return Outcome{}, err
	}
	wo.Result = wr
	return wo, nil
}

// RemoteError is a compilation error reproduced from the wire; the
// original typed error does not survive serialization.
type RemoteError struct{ Msg string }

// Error implements error.
func (e *RemoteError) Error() string { return e.Msg }

// Decode reconstructs a driver outcome (with a zero Job — callers align
// outcomes with the jobs they submitted) from a wire form whose result
// carries its loop.
func (wo Outcome) Decode() (driver.Outcome, error) {
	return wo.DecodeFor(driver.Job{})
}

// DecodeFor reconstructs the outcome of job j, which it returns as the
// outcome's Job: a result that left its loop out (the reader asked for
// loop=0) is a result for j.Graph, adopted as is; one that carries its
// loop is parsed as Decode does.
func (wo Outcome) DecodeFor(j driver.Job) (driver.Outcome, error) {
	elapsed := time.Duration(wo.ElapsedMS * float64(time.Millisecond))
	if wo.Error != "" {
		return driver.Outcome{Job: j, Err: &RemoteError{Msg: wo.Error}, CacheHit: wo.CacheHit, Elapsed: elapsed}, nil
	}
	if wo.Result == nil {
		return driver.Outcome{}, fmt.Errorf("wire: outcome carries neither result nor error")
	}
	res, err := wo.Result.decode(j)
	if err != nil {
		return driver.Outcome{}, err
	}
	return driver.Outcome{Job: j, Result: res, CacheHit: wo.CacheHit, Elapsed: elapsed}, nil
}
