package wire

// Outcome-event frames: the NDJSON protocol of a batch stream (a streamed
// POST /batch's answer, GET /batch/{id}/stream). The server writes one Frame
// per line — a hello frame announcing the stream schema, ticket and batch
// size, then one outcome frame per finished job the moment the engine hands
// it over, then a done frame with the ticket's terminal state. The frames are
// wire-schema v3: v2 job and result encodings are unchanged, v3 adds this
// streaming vocabulary on top. Decoders reject frames they do not understand
// with typed errors (*SchemaError for a too-new hello, *UnknownFrameError for
// an unrecognized frame type) instead of guessing.

import "fmt"

// StreamSchemaVersion is the wire-schema version of the batch-stream
// protocol. Version 3 introduced the protocol itself (hello/outcome/done
// frames); the job and result encodings it carries are the v2 shapes.
const StreamSchemaVersion = 3

// Frame types, in the order a healthy stream emits them.
const (
	// FrameHello opens a stream: schema version, ticket ID, batch size.
	FrameHello = "hello"
	// FrameOutcome carries one finished job: its batch index and outcome.
	FrameOutcome = "outcome"
	// FrameDone closes a stream: the ticket's terminal state and, for
	// failed or cancelled batches, the aggregate error.
	FrameDone = "done"
)

// Frame is one NDJSON line of a batch stream. Type selects which of the
// other fields are meaningful.
type Frame struct {
	Type string `json:"type"`
	// Schema is the stream protocol version (hello frames only).
	Schema int `json:"schema,omitempty"`
	// ID is the ticket being streamed (hello frames only).
	ID string `json:"id,omitempty"`
	// Total is the batch size (hello frames only).
	Total int `json:"total,omitempty"`
	// Index is the finished job's position in the batch (outcome frames).
	Index int `json:"index"`
	// Outcome is the finished job's result or error (outcome frames).
	Outcome *Outcome `json:"outcome,omitempty"`
	// State is the ticket's terminal state (done frames).
	State string `json:"state,omitempty"`
	// Error is the aggregate batch error (done frames, when any).
	Error string `json:"error,omitempty"`
	// Trace summarizes the ticket's execution trace (done frames of traced
	// batches only; the full trace is GET /jobs/{id}/trace). The field is
	// additive — v3 decoders without it simply drop it.
	Trace *TraceSummary `json:"trace,omitempty"`
}

// TraceSummary condenses a server-side execution trace for the stream's
// done frame: enough to log and to decide whether fetching the full
// trace is worth it.
type TraceSummary struct {
	// Spans and Tracks are the recorded event and track counts.
	Spans  int `json:"spans"`
	Tracks int `json:"tracks"`
	// WallMS is the trace's covered wall time in milliseconds.
	WallMS float64 `json:"wall_ms"`
}

// UnknownFrameError reports a stream frame whose type this build does not
// recognize — a newer server speaking a vocabulary this client lacks.
type UnknownFrameError struct {
	// Type is the unrecognized frame type.
	Type string
}

// Error implements error.
func (e *UnknownFrameError) Error() string {
	return fmt.Sprintf("wire: unknown stream frame type %q", e.Type)
}

// HelloFrame builds the stream-opening frame.
func HelloFrame(id string, total int) Frame {
	return Frame{Type: FrameHello, Schema: StreamSchemaVersion, ID: id, Total: total}
}

// DoneFrame builds the stream-closing frame.
func DoneFrame(state, errMsg string) Frame {
	return Frame{Type: FrameDone, State: state, Error: errMsg}
}

// Validate checks a decoded frame's self-consistency: the type must be
// known, a hello's schema must not be newer than this build speaks, and an
// outcome frame must actually carry an outcome. It returns the typed
// *SchemaError / *UnknownFrameError for the version mismatches.
func (f *Frame) Validate() error {
	switch f.Type {
	case FrameHello:
		if f.Schema > StreamSchemaVersion {
			return &SchemaError{Got: f.Schema, Max: StreamSchemaVersion}
		}
		return nil
	case FrameOutcome:
		if f.Outcome == nil {
			return fmt.Errorf("wire: outcome frame without an outcome")
		}
		if f.Index < 0 {
			return fmt.Errorf("wire: outcome frame with negative index %d", f.Index)
		}
		return nil
	case FrameDone:
		return nil
	}
	return &UnknownFrameError{Type: f.Type}
}
