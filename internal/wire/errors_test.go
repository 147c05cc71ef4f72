package wire

import (
	"encoding/json"
	"errors"
	"testing"
)

// TestErrorTexts pins what the codec's typed errors print: tests elsewhere
// match them with errors.As and never read the text a caller sees.
func TestErrorTexts(t *testing.T) {
	var syntax *json.SyntaxError
	malformed := &MalformedError{Err: json.Unmarshal([]byte("{"), new(any))}
	for _, c := range []struct {
		err  error
		want string
	}{
		{&IIClaimError{Loop: "swim_1", II: 0, Max: 40}, "wire: schedule for swim_1 claims II=0"},
		{&IIClaimError{Loop: "swim_1", II: 41, Max: 40}, "wire: schedule for swim_1 claims II=41, above the search ceiling 40"},
		{&UnknownFrameError{Type: "progress"}, `wire: unknown stream frame type "progress"`},
		{malformed, "unexpected end of JSON input"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%T: got %q, want %q", c.err, got, c.want)
		}
	}
	if !errors.As(malformed, &syntax) {
		t.Errorf("MalformedError does not unwrap to encoding/json's error: %v", malformed)
	}
}
