package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
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
		errText   string // substring of the expected error
		streamErr bool   // the error must be a *StreamError; with no errText either, success is expected
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
				`{"done":false,"count":0,"error":"cinct: corrupt index","status":500}` + "\n",
			errText:   "cinct: corrupt index",
			streamErr: true,
		},
		{
			name:      "error summary with an empty message",
			stream:    `{"done":false,"count":0,"status":500}` + "\n",
			streamErr: true,
		},
		{
			name:    "error summary without a status",
			stream:  `{"done":false,"count":0,"error":"cinct: corrupt index"}` + "\n",
			errText: "malformed summary record",
		},
		{
			name:    "error summary with a status that is no error",
			stream:  `{"done":false,"error":"boom","status":200}` + "\n",
			errText: "malformed summary record",
		},
		{
			name:    "done summary carrying an error",
			stream:  `{"done":true,"count":1,"error":"boom","status":500}` + "\n",
			errText: "malformed summary record",
		},
		{
			name:    "done summary carrying a status",
			stream:  `{"done":true,"count":1,"status":500}` + "\n",
			errText: "malformed summary record",
		},
		{
			name:    "incomplete summary without an error",
			stream:  `{"trajectory":0,"offset":5}` + "\n" + `{"done":false,"count":1}` + "\n",
			errText: "malformed summary record",
		},
		{
			name:    "a hit after the summary",
			stream:  `{"done":true,"count":0}` + "\n\n" + `{"trajectory":0,"offset":5}` + "\n",
			errText: "record after the summary",
		},
		{
			name:    "a second summary",
			stream:  `{"done":true,"count":0}` + "\n" + `{"done":false,"error":"boom","status":500}` + "\n",
			errText: "record after the summary",
		},
		{
			name:    "a record after an error summary",
			stream:  `{"done":false,"error":"boom","status":503}` + "\n" + `{"trajectory":0,"offset":5}` + "\n",
			errText: "record after the summary",
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
			name: "a record past the default line buffer",
			stream: `{"trajectory":2,"offset":1}` + "\n" +
				`{"done":true,"count":1,"cursor":"` + strings.Repeat("c", 200<<10) + `"}` + "\n",
			want: &Page{Hits: []cinct.Hit{hit(2, 1, 0)}, Count: 1, Cursor: strings.Repeat("c", 200<<10)},
		},
		{
			name:    "a record past maxLine",
			stream:  `{"done":true,"count":1,"cursor":"` + strings.Repeat("c", maxLine) + `"}` + "\n",
			errText: "token too long",
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
			if tc.errText == "" && !tc.streamErr {
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
			if se != nil && se.Status != 500 {
				t.Fatalf("StreamError status %d, want the summary's 500", se.Status)
			}
			if got != nil {
				t.Fatalf("ReadPage returned a page alongside the error: %+v", got)
			}
		})
	}
}

// TestReadBatch pins the batch decoder the ingest routes and the CLI's
// trace reader share: blank lines are skipped, and a record that fails
// to decode is named by its index among the records.
func TestReadBatch(t *testing.T) {
	type rec struct {
		N int `json:"n"`
	}
	tests := []struct {
		name, batch string
		want        []rec
		errText     string
	}{
		{name: "records and blank lines", batch: "\n{\"n\":1}\n  \n\t{\"n\":2} \n\n", want: []rec{{1}, {2}}},
		{name: "empty", batch: " \n\n"},
		{name: "malformed", batch: "{\"n\":1}\n\n{\"n\":", errText: "rec 1: unexpected end of JSON input"},
		{name: "mistyped", batch: "{\"n\":\"x\"}\n", errText: "rec 0: json: cannot unmarshal"},
		{name: "a record past maxLine", batch: `{"n":1` + strings.Repeat(" ", maxLine) + `}`, errText: "token too long"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ReadBatch[rec](strings.NewReader(tc.batch), "rec")
			if tc.errText != "" {
				if err == nil || !strings.Contains(err.Error(), tc.errText) || got != nil {
					t.Fatalf("ReadBatch = %v, %v; want no records and an error containing %q", got, err, tc.errText)
				}
				return
			}
			if err != nil || !slices.Equal(got, tc.want) {
				t.Fatalf("ReadBatch = %v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// FuzzReadPage pins the decoder on two fronts: arbitrary bytes give a
// page or an error, never a panic, and a failure is a *StreamError only
// with an HTTP error status; and pages the server's encoders write —
// hit records, then a complete summary or a failing one with its
// status — decode back equal.
func FuzzReadPage(f *testing.F) {
	seeds := []string{
		`{"trajectory":3,"offset":0}` + "\n" + `{"done":true,"count":1,"cursor":"tok"}` + "\n",
		`{"trajectory":1,"offset":-1,"enteredAt":1000}` + "\n" + `{"done":true,"count":1}` + "\n",
		`{"done":true,"count":41}` + "\n",
		`{"trajectory":0,"offset":5}` + "\n" + `{"done":false,"count":0,"error":"cinct: corrupt index","status":500}` + "\n",
		`{"done":false,"count":0,"error":"boom"}` + "\n",
		`{"done":false,"count":1}` + "\n",
		`{"done":true,"count":0}` + "\n" + `{"trajectory":0,"offset":5}` + "\n",
		`{"trajectory":0}` + "\n",
		`{"trajectory":`,
		"",
	}
	for i, seed := range seeds {
		f.Add([]byte(seed), int64(i), int64(-1), int64(1700000000), i%2 == 0, "cursor or message", 500+i)
	}
	f.Add([]byte("\n\n"), int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), true, "<&>\u2028\xff", -7)
	f.Fuzz(func(t *testing.T, stream []byte, traj, off, at int64, timed bool, text string, status int) {
		page, err := ReadPage(bytes.NewReader(stream))
		var se *StreamError
		switch {
		case err == nil && page == nil:
			t.Fatal("ReadPage returned neither a page nor an error")
		case err != nil && page != nil:
			t.Fatalf("ReadPage returned a page alongside %v", err)
		case errors.As(err, &se) && (se.Status < 400 || se.Status > 599):
			t.Fatalf("StreamError with status %d", se.Status)
		}

		hits := []Hit{{Trajectory: int(traj), Offset: int(off)}, {Trajectory: int(off), Offset: int(traj)}}
		want := &Page{Count: int(at), Cursor: strings.ToValidUTF8(text, "?")}
		for i := range hits {
			if timed {
				hits[i].EnteredAt = &at
			}
			h := hit(hits[i].Trajectory, hits[i].Offset, 0)
			if timed {
				h.EnteredAt = at
			}
			want.Hits = append(want.Hits, h)
		}
		var b []byte
		for _, h := range hits {
			b = AppendHit(b, h)
		}
		done := AppendSummary(slices.Clone(b), Summary{Done: true, Count: want.Count, Cursor: want.Cursor})
		if got, err := ReadPage(bytes.NewReader(done)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadPage(%q) = %+v, %v; want %+v", done, got, err, want)
		}
		status = 400 + int(uint(status)%200)
		failed := AppendSummary(b, Summary{Error: want.Cursor, Status: status})
		_, err = ReadPage(bytes.NewReader(failed))
		if !errors.As(err, &se) || se.Status != status || se.Msg != want.Cursor {
			t.Fatalf("ReadPage(%q) = %#v, want a StreamError{%d, %q}", failed, err, status, want.Cursor)
		}
	})
}
