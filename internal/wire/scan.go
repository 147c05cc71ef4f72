package wire

// The index-walking decoders of the hot messages. Each walks the bytes once
// and fills the same struct types encoding/json fills, for the subset of
// JSON it fully understands — and that subset is what this repository's
// encoders, and any ordinary JSON library, produce for these messages. On
// anything else the walk *declines* and the caller runs encoding/json over
// the same bytes, so which inputs are accepted, every error string and
// every value decoded from irregular input are encoding/json's by
// construction. A walk declines on:
//
//   - a key it does not know, a key spelled in another case or with an
//     escape, or a key that appears twice in one object;
//   - null, anywhere;
//   - a value of another type than the field's, a number with a fraction
//     or exponent (or out of range) where an integer belongs, a
//     "hetero" machine matrix;
//   - a string holding a raw control byte, invalid UTF-8, a surrogate
//     \u escape or an unknown escape;
//   - anything but white space after the value.
//
// The input decides the path, never a setting. The fuzzers in fuzz_test.go
// hold the rule: whenever a walk accepts, encoding/json accepts the same
// bytes and yields a deeply equal value.

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// scanner is the read position of one walk. Its methods report false to
// decline; the position is meaningless afterwards.
type scanner struct {
	b []byte
	i int
	// tmp holds a string's value while it is unescaped.
	tmp []byte
}

func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the byte c, after any white space.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only white space is left.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// object walks one JSON object whose keys must come from keys, each at most
// once; field is called with the key, positioned at its value.
func (s *scanner) object(keys []string, field func(key string) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint32
	for {
		key, escaped, ok := s.rawString()
		if !ok || escaped {
			return false
		}
		k := 0
		for k < len(keys) && keys[k] != string(key) {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !s.lit(':') {
			return false
		}
		s.ws()
		if !field(keys[k]) {
			return false
		}
		if s.lit(',') {
			continue
		}
		return s.lit('}')
	}
}

// array walks one JSON array, calling elem positioned at each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		s.ws()
		if !elem() {
			return false
		}
		if s.lit(',') {
			continue
		}
		return s.lit(']')
	}
}

// rawString consumes one JSON string and returns the bytes between its
// quotes, still escaped, and whether they hold an escape at all. It
// declines on a raw control byte and on invalid UTF-8.
func (s *scanner) rawString() (raw []byte, escaped, ok bool) {
	if !s.lit('"') {
		return nil, false, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			raw = s.b[start:s.i]
			s.i++
			return raw, escaped, true
		case c == '\\':
			escaped = true
			s.i += 2 // whatever is escaped, a quote included, is not the end
		case c < ' ':
			return nil, false, false
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false, false
			}
			s.i += size
		}
	}
	return nil, false, false
}

// unescape appends the value of raw, the escaped inside of a JSON string,
// to dst. It declines on an escape it does not handle: anything but the
// eight two-byte escapes and \uXXXX of a non-surrogate code point.
func unescape(dst, raw []byte) ([]byte, bool) {
	for i := 0; i < len(raw); {
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		if i+1 >= len(raw) {
			return dst, false
		}
		switch raw[i+1] {
		case '"', '\\', '/':
			dst = append(dst, raw[i+1])
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			if i+6 > len(raw) {
				return dst, false
			}
			var r rune
			for _, h := range raw[i+2 : i+6] {
				switch {
				case '0' <= h && h <= '9':
					r = r<<4 | rune(h-'0')
				case 'a' <= h && h <= 'f':
					r = r<<4 | rune(h-'a'+10)
				case 'A' <= h && h <= 'F':
					r = r<<4 | rune(h-'A'+10)
				default:
					return dst, false
				}
			}
			if 0xD800 <= r && r <= 0xDFFF {
				return dst, false
			}
			dst = utf8.AppendRune(dst, r)
			i += 6
			continue
		default:
			return dst, false
		}
		i += 2
	}
	return dst, true
}

// str consumes one JSON string and returns its value — prev itself when
// the value equals it, so a field that repeats from message to message (a
// machine name, a frame type) is not allocated again.
func (s *scanner) str(prev string) (string, bool) {
	raw, escaped, ok := s.rawString()
	if !ok {
		return "", false
	}
	if escaped {
		if s.tmp, ok = unescape(s.tmp[:0], raw); !ok {
			return "", false
		}
		raw = s.tmp
	}
	if string(raw) == prev {
		return prev, true
	}
	return string(raw), true
}

// integer consumes a JSON number that is a plain integer of at most 18
// digits (so it cannot overflow) within [min, max], the range of the field's
// type; an unsigned field (min 0) takes no sign, not even on a zero.
func (s *scanner) integer(min, max int64) (int64, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		if min >= 0 {
			return 0, false
		}
		s.i++
	}
	start := s.i
	var v int64
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
	}
	n := s.i - start
	if n == 0 || n > 18 || (n > 1 && s.b[start] == '0') {
		return 0, false
	}
	if s.i < len(s.b) {
		switch s.b[s.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, min <= v && v <= max
}

const (
	minInt = -1 << (strconv.IntSize - 1)
	maxInt = 1<<(strconv.IntSize-1) - 1
)

func (s *scanner) int(dst *int) bool {
	v, ok := s.integer(minInt, maxInt)
	*dst = int(v)
	return ok
}

func (s *scanner) int64(dst *int64) bool {
	v, ok := s.integer(-1<<63, 1<<63-1)
	*dst = v
	return ok
}

// float consumes a JSON number into a float64, as encoding/json does: the
// literal checked against the JSON grammar, then strconv.ParseFloat.
func (s *scanner) float(dst *float64) bool {
	start := s.i
	digits := func() bool {
		from := s.i
		for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
			s.i++
		}
		return s.i > from
	}
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	intStart := s.i
	if !digits() || (s.i-intStart > 1 && s.b[intStart] == '0') {
		return false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !digits() {
			return false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !digits() {
			return false
		}
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	*dst = v
	return err == nil
}

func (s *scanner) bool(dst *bool) bool {
	for _, w := range [...]string{"false", "true"} {
		if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
			*dst = w == "true"
			s.i += len(w)
			return true
		}
	}
	return false
}

// ints consumes an array of integers into buf[:0]: never nil, as
// encoding/json leaves an empty array.
func (s *scanner) ints(buf []int) ([]int, bool) {
	out := buf[:0]
	if out == nil {
		out = []int{}
	}
	ok := s.array(func() bool {
		var v int
		ok := s.int(&v)
		out = append(out, v)
		return ok
	})
	return out, ok
}

// The key tables list the JSON keys of each struct a walk fills, in field
// order (TestKeyTablesMatchTheSchema holds them to the struct tags).
var (
	machineKeys     = []string{"config", "clusters", "buses", "bus_latency", "regs_per_cluster"}
	optionsKeys     = []string{"strategy", "replicate", "length_replicate", "zero_bus_latency", "macro_replication", "max_ii", "ignore_register_pressure", "verify_schedules"}
	jobKeys         = []string{"schema", "loop", "machine", "options"}
	submitKeys      = []string{"jobs", "timeout_ms", "trace"}
	replicationKeys = []string{"replicated_int", "replicated_fp", "replicated_mem", "removed", "steps"}
	increasesKeys   = []string{"bus", "recurrences", "registers"}
	placementKeys   = []string{"home", "replicas"}
	scheduleKeys    = []string{"ii", "time"}
	resultKeys      = []string{"loop", "machine", "options", "mii", "ii", "length", "sc", "comms_before_replication", "comms", "replication", "ii_increases", "placement", "schedule"}
	outcomeKeys     = []string{"result", "error", "cache_hit", "elapsed_ms"}
	frameKeys       = []string{"type", "index", "outcome"}
	statusKeys      = []string{"id", "state", "num_jobs", "created_ms", "started_ms", "finished_ms", "deadline_ms", "retry_after_ms", "outcomes", "error"}
)

// Each walk below overwrites its destination entirely. What the destination
// held before is recycled, never read as a value: strings are kept when the
// new value is equal, pointed-to structs and slice capacity are reused.

func (s *scanner) machine(m *Machine) bool {
	old := m.Config
	*m = Machine{}
	return s.object(machineKeys, func(key string) (ok bool) {
		switch key {
		case "config":
			m.Config, ok = s.str(old)
		case "clusters":
			ok = s.int(&m.Clusters)
		case "buses":
			ok = s.int(&m.Buses)
		case "bus_latency":
			ok = s.int(&m.BusLatency)
		case "regs_per_cluster":
			ok = s.int(&m.RegsPerCluster)
		}
		return ok
	})
}

func (s *scanner) options(o *Options) bool {
	old := o.Strategy
	*o = Options{}
	return s.object(optionsKeys, func(key string) (ok bool) {
		switch key {
		case "strategy":
			o.Strategy, ok = s.str(old)
		case "replicate":
			ok = s.bool(&o.Replicate)
		case "length_replicate":
			ok = s.bool(&o.LengthReplicate)
		case "zero_bus_latency":
			ok = s.bool(&o.ZeroBusLatency)
		case "macro_replication":
			ok = s.bool(&o.UseMacroReplication)
		case "max_ii":
			ok = s.int(&o.MaxII)
		case "ignore_register_pressure":
			ok = s.bool(&o.IgnoreRegisterPressure)
		case "verify_schedules":
			ok = s.bool(&o.VerifySchedules)
		}
		return ok
	})
}

func (s *scanner) job(j *Job) bool {
	old := *j
	*j = Job{}
	return s.object(jobKeys, func(key string) (ok bool) {
		switch key {
		case "schema":
			ok = s.int(&j.Schema)
		case "loop":
			j.Loop, ok = s.str("")
		case "machine":
			j.Machine = old.Machine
			ok = s.machine(&j.Machine)
		case "options":
			j.Options = old.Options
			ok = s.options(&j.Options)
		}
		return ok
	})
}

func (s *scanner) placement(p *Placement) bool {
	home, replicas := p.Home, p.Replicas
	*p = Placement{}
	return s.object(placementKeys, func(key string) (ok bool) {
		switch key {
		case "home":
			p.Home, ok = s.ints(home)
		case "replicas":
			out := replicas[:0]
			if out == nil {
				out = []uint32{}
			}
			ok = s.array(func() bool {
				v, ok := s.integer(0, 1<<32-1)
				out = append(out, uint32(v))
				return ok
			})
			p.Replicas = out
		}
		return ok
	})
}

func (s *scanner) schedule(sc *Schedule) bool {
	time := sc.Time
	*sc = Schedule{}
	return s.object(scheduleKeys, func(key string) (ok bool) {
		switch key {
		case "ii":
			ok = s.int(&sc.II)
		case "time":
			sc.Time, ok = s.ints(time)
		}
		return ok
	})
}

func (s *scanner) result(r *Result) bool {
	old := *r
	*r = Result{}
	return s.object(resultKeys, func(key string) (ok bool) {
		switch key {
		case "loop":
			r.Loop, ok = s.str("")
		case "machine":
			r.Machine = old.Machine
			ok = s.machine(&r.Machine)
		case "options":
			r.Options = old.Options
			ok = s.options(&r.Options)
		case "mii":
			ok = s.int(&r.MII)
		case "ii":
			ok = s.int(&r.II)
		case "length":
			ok = s.int(&r.Length)
		case "sc":
			ok = s.int(&r.SC)
		case "comms_before_replication":
			ok = s.int(&r.CommsBefore)
		case "comms":
			ok = s.int(&r.Comms)
		case "replication":
			rs := &r.Replication
			ok = s.object(replicationKeys, func(key string) (ok bool) {
				switch key {
				case "replicated_int":
					ok = s.int(&rs.ReplicatedInt)
				case "replicated_fp":
					ok = s.int(&rs.ReplicatedFP)
				case "replicated_mem":
					ok = s.int(&rs.ReplicatedMem)
				case "removed":
					ok = s.int(&rs.Removed)
				case "steps":
					ok = s.int(&rs.Steps)
				}
				return ok
			})
		case "ii_increases":
			in := &r.IIIncreases
			ok = s.object(increasesKeys, func(key string) (ok bool) {
				switch key {
				case "bus":
					ok = s.int(&in.Bus)
				case "recurrences":
					ok = s.int(&in.Recurrences)
				case "registers":
					ok = s.int(&in.Registers)
				}
				return ok
			})
		case "placement":
			if r.Placement = old.Placement; r.Placement == nil {
				r.Placement = new(Placement)
			}
			ok = s.placement(r.Placement)
		case "schedule":
			if r.Schedule = old.Schedule; r.Schedule == nil {
				r.Schedule = new(Schedule)
			}
			ok = s.schedule(r.Schedule)
		}
		return ok
	})
}

func (s *scanner) outcome(o *Outcome) bool {
	old := *o
	*o = Outcome{}
	return s.object(outcomeKeys, func(key string) (ok bool) {
		switch key {
		case "result":
			if o.Result = old.Result; o.Result == nil {
				o.Result = new(Result)
			}
			ok = s.result(o.Result)
		case "error":
			o.Error, ok = s.str(old.Error)
		case "cache_hit":
			ok = s.bool(&o.CacheHit)
		case "elapsed_ms":
			ok = s.float(&o.ElapsedMS)
		}
		return ok
	})
}

func (s *scanner) submit(req *SubmitRequest) bool {
	return s.object(submitKeys, func(key string) (ok bool) {
		switch key {
		case "jobs":
			req.Jobs = []Job{}
			ok = s.array(func() bool {
				// A batch repeats its machine and options job after job:
				// start each from the one before, so equal names share one
				// string.
				var j Job
				if n := len(req.Jobs); n > 0 {
					j.Machine, j.Options = req.Jobs[n-1].Machine, req.Jobs[n-1].Options
				}
				ok := s.job(&j)
				req.Jobs = append(req.Jobs, j)
				return ok
			})
		case "timeout_ms":
			ok = s.int64(&req.TimeoutMS)
		case "trace":
			ok = s.bool(&req.Trace)
		}
		return ok
	})
}

func (s *scanner) frame(f *Frame) bool {
	old := *f
	*f = Frame{}
	return s.object(frameKeys, func(key string) (ok bool) {
		switch key {
		case "type":
			f.Type, ok = s.str(old.Type)
		case "index":
			ok = s.int(&f.Index)
		case "outcome":
			if f.Outcome = old.Outcome; f.Outcome == nil {
				f.Outcome = new(Outcome)
			}
			ok = s.outcome(f.Outcome)
		}
		return ok
	})
}

func (s *scanner) status(st *JobStatus) bool {
	return s.object(statusKeys, func(key string) (ok bool) {
		switch key {
		case "id":
			st.ID, ok = s.str("")
		case "state":
			st.State, ok = s.str("")
		case "num_jobs":
			ok = s.int(&st.NumJobs)
		case "created_ms":
			ok = s.int64(&st.CreatedMS)
		case "started_ms":
			ok = s.int64(&st.StartedMS)
		case "finished_ms":
			ok = s.int64(&st.FinishedMS)
		case "deadline_ms":
			ok = s.int64(&st.DeadlineMS)
		case "retry_after_ms":
			ok = s.int64(&st.RetryAfterMS)
		case "outcomes":
			st.Outcomes = []Outcome{}
			ok = s.array(func() bool {
				var o Outcome
				ok := s.outcome(&o)
				st.Outcomes = append(st.Outcomes, o)
				return ok
			})
		case "error":
			st.Error, ok = s.str("")
		}
		return ok
	})
}

// The Decode functions try the walk and, when it declines, hand the same
// bytes to encoding/json in the form each call site has always used: one
// value off a Decoder for the request and answer bodies (what follows the
// value is not read), Unmarshal for a stream line (one line, one frame).

// DecodeJob decodes the POST /compile body into *j.
func DecodeJob(data []byte, j *Job) error {
	*j = Job{}
	if s := (scanner{b: data}); s.job(j) && s.end() {
		return nil
	}
	*j = Job{}
	return json.NewDecoder(bytes.NewReader(data)).Decode(j)
}

// DecodeSubmitRequest decodes the POST /batch body into *req.
func DecodeSubmitRequest(data []byte, req *SubmitRequest) error {
	*req = SubmitRequest{}
	if s := (scanner{b: data}); s.submit(req) && s.end() {
		return nil
	}
	*req = SubmitRequest{}
	return json.NewDecoder(bytes.NewReader(data)).Decode(req)
}

// DecodeJobStatus decodes a GET /jobs/{id} or POST /compile?wait=1 answer
// into *st.
func DecodeJobStatus(data []byte, st *JobStatus) error {
	*st = JobStatus{}
	if s := (scanner{b: data}); s.status(st) && s.end() {
		return nil
	}
	*st = JobStatus{}
	return json.NewDecoder(bytes.NewReader(data)).Decode(st)
}

// DecodeFrame decodes one line of a batch stream into *f. It overwrites *f
// entirely but recycles the memory *f already points to, so a reader that
// decodes every line into the same Frame allocates next to nothing per
// outcome — and must be done with a frame's slices before it decodes the
// next (Outcome.Decode copies what it keeps). Only outcome frames are
// walked; hello and done frames, two per stream, go to encoding/json.
func DecodeFrame(line []byte, f *Frame) error {
	if s := (scanner{b: line}); s.frame(f) && s.end() {
		return nil
	}
	*f = Frame{}
	return json.Unmarshal(line, f)
}
