package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"cinct"
)

func hit(traj, off int, at int64) cinct.Hit {
	return cinct.Hit{Match: cinct.Match{Trajectory: traj, Offset: off}, EnteredAt: at}
}

// TestReadPage pins the one decoder the HTTP client and the benchmark's
// replay trace both trust, record shape by record shape.
func TestReadPage(t *testing.T) {
	tests := []struct {
		name      string
		stream    string
		want      *Page
		errText   string // substring of the expected error; "" means success
		streamErr bool   // the error must be a *StreamError
	}{
		{
			name: "hits and summary",
			stream: `{"trajectory":3,"offset":0}` + "\n" +
				`{"trajectory":3,"offset":7}` + "\n" +
				`{"done":true,"count":2,"cursor":"tok"}` + "\n",
			want: &Page{Hits: []cinct.Hit{hit(3, 0, 0), hit(3, 7, 0)}, Count: 2, Cursor: "tok"},
		},
		{
			name: "enteredAt is optional per hit",
			stream: `{"trajectory":1,"offset":2,"enteredAt":1000}` + "\n" +
				`{"trajectory":4,"offset":-1}` + "\n" +
				`{"done":true,"count":2}` + "\n",
			want: &Page{Hits: []cinct.Hit{hit(1, 2, 1000), hit(4, -1, 0)}, Count: 2},
		},
		{
			name:   "count-only page",
			stream: `{"done":true,"count":41}` + "\n",
			want:   &Page{Count: 41},
		},
		{
			name: "blank lines are skipped",
			stream: "\n" + `{"trajectory":0,"offset":5}` + "\n\n" +
				`{"done":true,"count":1}` + "\n\n",
			want: &Page{Hits: []cinct.Hit{hit(0, 5, 0)}, Count: 1},
		},
		{
			name: "error summary",
			stream: `{"trajectory":0,"offset":5}` + "\n" +
				`{"done":false,"count":0,"error":"engine: corrupt index"}` + "\n",
			errText:   "engine: corrupt index",
			streamErr: true,
		},
		{
			name:    "no summary record",
			stream:  `{"trajectory":0,"offset":5}` + "\n",
			errText: "truncated query stream",
		},
		{
			name:    "empty stream",
			stream:  "",
			errText: "truncated query stream",
		},
		{
			name:    "unrecognised record",
			stream:  `{"trajectory":0}` + "\n" + `{"done":true,"count":0}` + "\n",
			errText: "unrecognized stream record",
		},
		{
			name:    "malformed JSON",
			stream:  `{"trajectory":` + "\n",
			errText: "bad stream record",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadPage(strings.NewReader(tc.stream))
			if tc.errText == "" {
				if err != nil {
					t.Fatalf("ReadPage: %v", err)
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("ReadPage = %+v, want %+v", got, tc.want)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.errText) {
				t.Fatalf("ReadPage err = %v, want one containing %q", err, tc.errText)
			}
			var se *StreamError
			if errors.As(err, &se) != tc.streamErr {
				t.Fatalf("ReadPage err = %#v; is a *StreamError: want %v", err, tc.streamErr)
			}
			if got != nil {
				t.Fatalf("ReadPage returned a page alongside the error: %+v", got)
			}
		})
	}
}
