package driver

import (
	"errors"
	"testing"
)

// TestErrorTexts pins what JobError and BatchError print: tests elsewhere
// match them with errors.As and never read the text a caller sees.
func TestErrorTexts(t *testing.T) {
	cause := errors.New("does not schedule")
	je := JobError{Index: 3, Loop: "swim_1", Machine: "4c2b2l64r", Err: cause}
	other := JobError{Index: 7, Loop: "mgrid_2", Machine: "2c1b2l64r", Err: errors.New("other")}
	for _, c := range []struct {
		err  error
		want string
	}{
		{&je, "job 3 (swim_1 on 4c2b2l64r): does not schedule"},
		{&BatchError{Total: 5}, "driver: 0 of 5 compilations failed"},
		{&BatchError{Total: 5, Failed: []JobError{je}},
			"driver: 1 of 5 compilations failed: job 3 (swim_1 on 4c2b2l64r): does not schedule"},
		{&BatchError{Total: 5, Failed: []JobError{je, other}},
			"driver: 2 of 5 compilations failed (first: job 3 (swim_1 on 4c2b2l64r): does not schedule)"},
	} {
		if got := c.err.Error(); got != c.want {
			t.Errorf("%T: got %q, want %q", c.err, got, c.want)
		}
	}
	if !errors.Is(&je, cause) {
		t.Error("JobError does not unwrap to its compilation error")
	}
}
