package wire

// The append-style encoders of the three hot messages — the batch submit
// request, the outcome frame of the NDJSON stream and the job status — plus
// the bare job of POST /compile. They write straight from driver.Job and
// driver.Outcome into a caller-owned buffer: no intermediate wire.Job or
// wire.Result, no copies of the placement and time vectors, no reflection.
//
// The struct types and their tags remain the schema. Every function here
// is held byte-for-byte to json.Marshal (json.Encoder.Encode for the frame)
// of the struct form the Encode* functions build — field order, omitempty,
// null for an empty unallocated slice, HTML escaping, U+FFFD for invalid
// UTF-8, float formatting — by the oracle in reference_test.go.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"clusched/internal/ddg"
	"clusched/internal/driver"
	"clusched/internal/machine"
	"clusched/internal/pipeline"
)

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does with
// HTML escaping on (its default): ", \ and control bytes escaped, <, > and
// & as \u00XX, U+2028/U+2029 as \u202X, invalid UTF-8 as \ufffd.
func appendString[T []byte | string](dst []byte, s T) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendFloat appends f (finite) in encoding/json's number format: the
// shortest representation that round-trips, exponent form only below 1e-6
// and from 1e21 up, the exponent unpadded.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// member opens one object member: a comma unless the object was just
// opened (no value ends in '{'), the key — a plain ASCII literal — and the
// colon.
func member(dst []byte, key string) []byte {
	if dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

func intMember(dst []byte, key string, v int64) []byte {
	return strconv.AppendInt(member(dst, key), v, 10)
}

// The opt* helpers are the omitempty forms.

func optInt(dst []byte, key string, v int64) []byte {
	if v == 0 {
		return dst
	}
	return intMember(dst, key, v)
}

func optBool(dst []byte, key string, v bool) []byte {
	if !v {
		return dst
	}
	return append(member(dst, key), "true"...)
}

func optString(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(member(dst, key), v)
}

// appendInts appends a JSON array of integers; an empty vector is null when
// the struct form would hold an unallocated slice there, else [].
func appendInts[T ~int | ~uint32](dst []byte, v []T, emptyIsNull bool) []byte {
	if len(v) == 0 {
		if emptyIsNull {
			return append(dst, "null"...)
		}
		return append(dst, '[', ']')
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

func appendMachine(dst []byte, m machine.Config) []byte {
	dst = append(dst, '{')
	dst = appendString(member(dst, "config"), m.Name)
	dst = optInt(dst, "clusters", int64(m.Clusters))
	dst = optInt(dst, "buses", int64(m.Buses))
	dst = optInt(dst, "bus_latency", int64(m.BusLatency))
	dst = optInt(dst, "regs_per_cluster", int64(m.Regs))
	if len(m.Hetero) > 0 {
		dst = append(member(dst, "hetero"), '[')
		for c := range m.Hetero {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = appendInts(dst, m.Hetero[c][:], false)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

func appendOptions(dst []byte, o pipeline.Options) []byte {
	dst = append(dst, '{')
	dst = optString(dst, "strategy", o.Strategy)
	dst = optBool(dst, "replicate", o.Replicate)
	dst = optBool(dst, "length_replicate", o.LengthReplicate)
	dst = optBool(dst, "zero_bus_latency", o.ZeroBusLatency)
	dst = optBool(dst, "macro_replication", o.UseMacroReplication)
	dst = optInt(dst, "max_ii", int64(o.MaxII))
	dst = optBool(dst, "ignore_register_pressure", o.IgnoreRegisterPressure)
	dst = optBool(dst, "verify_schedules", o.VerifySchedules)
	return append(dst, '}')
}

// textPool lends the buffer a loop's text is written to before it is
// escaped into the message.
var textPool = sync.Pool{New: func() any { return new([]byte) }}

// appendLoop appends g's text encoding as a JSON string.
func appendLoop(dst []byte, g *ddg.Graph) ([]byte, error) {
	buf := textPool.Get().(*[]byte)
	defer textPool.Put(buf)
	text, err := ddg.AppendText((*buf)[:0], g)
	if err != nil {
		return dst, err
	}
	*buf = text
	return appendString(slices.Grow(dst, loopRoom(len(text))), text), nil
}

// loopRoom is the room a message needs for a loop text of n bytes: escaping
// adds a byte per line, and room for that and the job or result around the
// text spares a fresh buffer its growth steps.
func loopRoom(n int) int { return n + n/8 + 256 }

// AppendJob appends the JSON form of one job: the bytes json.Marshal gives
// for EncodeJob(j). On error nothing has been appended.
func AppendJob(dst []byte, j driver.Job) ([]byte, error) {
	mark := len(dst)
	dst = append(dst, '{')
	dst = intMember(dst, "schema", JobSchemaVersion)
	dst, err := appendLoop(member(dst, "loop"), j.Graph)
	if err != nil {
		return dst[:mark], err
	}
	dst = appendMachine(member(dst, "machine"), j.Machine)
	dst = appendOptions(member(dst, "options"), j.Opts)
	return append(dst, '}'), nil
}

// AppendSubmitRequest appends the POST /batch body for jobs: the bytes
// json.Marshal gives for a SubmitRequest of their encoded forms, with neither
// a timeout nor a trace request. On error (an unencodable job, named by its
// index) nothing has been appended.
func AppendSubmitRequest(dst []byte, jobs []driver.Job) ([]byte, error) {
	mark, size := len(dst), 64
	for _, j := range jobs {
		size += loopRoom(ddg.TextSize(j.Graph))
	}
	dst = append(member(append(slices.Grow(dst, size), '{'), "jobs"), '[')
	for i, j := range jobs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendJob(dst, j); err != nil {
			return dst[:mark], fmt.Errorf("job %d: %w", i, err)
		}
	}
	return append(dst, ']', '}'), nil
}

// appendResult appends the JSON form of a result compiled under opts; with
// loop false the loop text is left out (the reader holds the job).
func appendResult(dst []byte, r *pipeline.Result, opts pipeline.Options, loop bool) ([]byte, error) {
	dst = append(dst, '{')
	if loop {
		var err error
		if dst, err = appendLoop(member(dst, "loop"), r.Loop); err != nil {
			return dst, err
		}
	}
	dst = appendMachine(member(dst, "machine"), r.Machine)
	dst = appendOptions(member(dst, "options"), opts)
	dst = intMember(dst, "mii", int64(r.MII))
	dst = intMember(dst, "ii", int64(r.II))
	dst = intMember(dst, "length", int64(r.Length))
	dst = intMember(dst, "sc", int64(r.SC))
	dst = intMember(dst, "comms_before_replication", int64(r.CommsBeforeReplication))
	dst = intMember(dst, "comms", int64(r.Comms))

	dst = append(member(dst, "replication"), '{')
	dst = optInt(dst, "replicated_int", int64(r.Replicated[ddg.ClassInt]))
	dst = optInt(dst, "replicated_fp", int64(r.Replicated[ddg.ClassFP]))
	dst = optInt(dst, "replicated_mem", int64(r.Replicated[ddg.ClassMem]))
	dst = optInt(dst, "removed", int64(r.Removed))
	dst = optInt(dst, "steps", int64(r.ReplicationSteps))
	dst = append(dst, '}')

	dst = append(member(dst, "ii_increases"), '{')
	dst = optInt(dst, "bus", int64(r.IIIncreases[pipeline.CauseBus]))
	dst = optInt(dst, "recurrences", int64(r.IIIncreases[pipeline.CauseRecurrence]))
	dst = optInt(dst, "registers", int64(r.IIIncreases[pipeline.CauseRegisters]))
	dst = append(dst, '}')

	if p := r.Placement; p != nil {
		dst = append(member(dst, "placement"), '{')
		dst = appendInts(member(dst, "home"), p.Home, true)
		dst = appendInts(member(dst, "replicas"), p.Replicas, false)
		dst = append(dst, '}')
	}
	if s := r.Schedule; s != nil {
		dst = append(member(dst, "schedule"), '{')
		dst = intMember(dst, "ii", int64(s.II))
		dst = appendInts(member(dst, "time"), s.Time, true)
		dst = append(dst, '}')
	}
	return append(dst, '}'), nil
}

// appendOutcome appends the JSON form of one outcome. An outcome that
// cannot be encoded (a loop the text format cannot carry) is replaced by
// the error outcome servers have always sent in its place.
func appendOutcome(dst []byte, o driver.Outcome, loop bool) []byte {
	mark := len(dst)
	dst = append(dst, '{')
	var err error
	switch {
	case o.Err != nil:
		dst = optString(dst, "error", o.Err.Error())
	case o.Result == nil:
		err = fmt.Errorf("wire: outcome carries neither result nor error")
	default:
		dst, err = appendResult(member(dst, "result"), o.Result, o.Job.Opts, loop)
	}
	if err != nil {
		dst = append(dst[:mark], '{')
		dst = appendString(member(dst, "error"), fmt.Sprintf("encoding outcome: %v", err))
		return append(dst, '}')
	}
	dst = optBool(dst, "cache_hit", o.CacheHit)
	if o.Elapsed > 0 {
		if ms := float64(o.Elapsed.Microseconds()) / 1e3; ms != 0 {
			dst = appendFloat(member(dst, "elapsed_ms"), ms)
		}
	}
	return append(dst, '}')
}

// AppendOutcomeFrame appends one line of the batch stream — the outcome
// frame of job index and its newline: the bytes json.Encoder.Encode gives
// for OutcomeFrame(index, EncodeOutcome(o)). With loop false the result
// leaves its loop text out; the reader asked for that (loop=0) because it
// holds the job.
func AppendOutcomeFrame(dst []byte, index int, o driver.Outcome, loop bool) []byte {
	dst = append(dst, `{"type":"outcome","index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = appendOutcome(member(dst, "outcome"), o, loop)
	return append(dst, '}', '\n')
}

// AppendJobStatus appends the poll answer for a ticket: the bytes
// json.Marshal gives for st with outs encoded as its Outcomes (st.Outcomes
// itself is not read). loop is as for AppendOutcomeFrame.
func AppendJobStatus(dst []byte, st *JobStatus, outs []driver.Outcome, loop bool) []byte {
	dst = append(dst, '{')
	dst = appendString(member(dst, "id"), st.ID)
	dst = appendString(member(dst, "state"), st.State)
	dst = intMember(dst, "num_jobs", int64(st.NumJobs))
	dst = optInt(dst, "created_ms", st.CreatedMS)
	dst = optInt(dst, "started_ms", st.StartedMS)
	dst = optInt(dst, "finished_ms", st.FinishedMS)
	dst = optInt(dst, "deadline_ms", st.DeadlineMS)
	dst = optInt(dst, "retry_after_ms", st.RetryAfterMS)
	if len(outs) > 0 {
		dst = append(member(dst, "outcomes"), '[')
		for i, o := range outs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendOutcome(dst, o, loop)
		}
		dst = append(dst, ']')
	}
	dst = optString(dst, "error", st.Error)
	return append(dst, '}')
}
