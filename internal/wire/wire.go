// Package wire holds the JSON shapes of the /v1/{index}/query NDJSON
// protocol, the encoders the daemon writes its records with and the
// one decoder for its pages: the server package aliases these types as
// its public QueryRequest, QueryHit, QuerySummary and QueryPage, and
// both the HTTP client and the benchmark's replay trace decode pages
// with ReadPage, so there is no second parser to drift from what the
// daemon writes.
package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"cinct"
)

// Request is the body of POST /v1/{index}/query — the wire form of
// cinct.Query. Kind is spelled "occurrences" (the default),
// "trajectories" or "count". From/To, when either is present, form the
// closed interval constraint; a missing bound defaults to the widest
// value.
type Request struct {
	Path   []uint32 `json:"path"`
	Kind   string   `json:"kind,omitempty"`
	From   *int64   `json:"from,omitempty"`
	To     *int64   `json:"to,omitempty"`
	Limit  int      `json:"limit,omitempty"`
	Cursor string   `json:"cursor,omitempty"`
}

// Query converts the wire form to the library descriptor.
func (qr Request) Query() (cinct.Query, error) {
	kind, err := cinct.KindFromString(qr.Kind)
	if err != nil {
		return cinct.Query{}, err
	}
	return cinct.Query{Path: qr.Path, Kind: kind, Interval: Interval(qr.From, qr.To), Limit: qr.Limit, Cursor: qr.Cursor}, nil
}

// Interval is the closed interval constraint of a wire from/to pair:
// nil when both are absent, and a missing bound is the widest value.
func Interval(from, to *int64) *cinct.Interval {
	if from == nil && to == nil {
		return nil
	}
	iv := &cinct.Interval{From: math.MinInt64, To: math.MaxInt64}
	if from != nil {
		iv.From = *from
	}
	if to != nil {
		iv.To = *to
	}
	return iv
}

// FromQuery converts a library descriptor to the wire form (what
// Client.Search posts).
func FromQuery(q cinct.Query) Request {
	qr := Request{Path: q.Path, Kind: q.Kind.String(), Limit: q.Limit, Cursor: q.Cursor}
	if q.Interval != nil {
		from, to := q.Interval.From, q.Interval.To
		qr.From, qr.To = &from, &to
	}
	return qr
}

// Hit is one hit record of the stream. For trajectories-kind queries
// Offset is -1. EnteredAt is present only for interval-constrained
// queries.
type Hit struct {
	Trajectory int    `json:"trajectory"`
	Offset     int    `json:"offset"`
	EnteredAt  *int64 `json:"enteredAt,omitempty"`
}

// Summary is the final record of the stream: Done, Count and Cursor
// end a complete one; Error and the HTTP Status it maps to end one that
// failed after its first bytes had left.
type Summary struct {
	Done   bool   `json:"done"`
	Count  int    `json:"count"`
	Cursor string `json:"cursor,omitempty"`
	Error  string `json:"error,omitempty"`
	Status int    `json:"status,omitempty"`
}

// AppendHit appends h's record, newline-terminated, to b without
// reflection: hit records are a stream's bulk, and every field is an
// integer, so no escaping is ever needed. The bytes are json.Marshal's.
func AppendHit(b []byte, h Hit) []byte {
	b = append(b, `{"trajectory":`...)
	b = strconv.AppendInt(b, int64(h.Trajectory), 10)
	b = append(b, `,"offset":`...)
	b = strconv.AppendInt(b, int64(h.Offset), 10)
	if h.EnteredAt != nil {
		b = append(b, `,"enteredAt":`...)
		b = strconv.AppendInt(b, *h.EnteredAt, 10)
	}
	return append(b, "}\n"...)
}

// AppendSummary appends s's record, newline-terminated, to b.
func AppendSummary(b []byte, s Summary) []byte {
	rec, _ := json.Marshal(s) // a Summary always marshals
	b = append(b, rec...)
	return append(b, '\n')
}

// Page is one decoded page of the stream: the hits in canonical order,
// the count reported by the summary record, and the resume cursor (""
// when the server exhausted the stream).
type Page struct {
	Hits   []cinct.Hit
	Count  int
	Cursor string
}

// StreamError is the failure a summary record reports, with the HTTP
// status the server mapped it to: the status the reply would have had,
// had the failure come before the first write. The Go client returns
// it as that status's APIError.
type StreamError struct {
	Status int
	Msg    string
}

func (e *StreamError) Error() string { return e.Msg }

// line is the union shape of an NDJSON stream record: a Summary, or a
// hit's trajectory/offset/enteredAt. The pointer fields tell them
// apart; Done shadows the Summary's own.
type line struct {
	Trajectory *int   `json:"trajectory"`
	Offset     *int   `json:"offset"`
	EnteredAt  *int64 `json:"enteredAt"`
	Done       *bool  `json:"done"`
	Summary
}

// maxLine bounds one NDJSON record; generous, since a record is one
// hit, one summary or one batch record. The scanner starts at its
// default size and grows toward it only for a record that needs it, so
// a page of short records never allocates a large line buffer.
const maxLine = 1 << 20

// ReadPage decodes one NDJSON query stream into a Page. It accepts
// only what the server writes: hit records, then exactly one summary,
// which is either complete (done, with no error and no status) or a
// failure (not done, with an HTTP error status), returned as a
// *StreamError. Anything else errors: any other summary, a record
// after the summary, and a stream that ends without a summary (a
// transport truncation).
func ReadPage(r io.Reader) (*Page, error) {
	page := &Page{}
	var failed *StreamError
	sawSummary := false
	err := records(r, func(raw []byte) error {
		var rec line
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("server: bad stream record: %w", err)
		}
		switch {
		case sawSummary:
			return fmt.Errorf("server: stream record after the summary: %q", raw)
		case rec.Done == nil:
			if rec.Trajectory == nil || rec.Offset == nil {
				return fmt.Errorf("server: unrecognized stream record %q", raw)
			}
			h := cinct.Hit{Match: cinct.Match{Trajectory: *rec.Trajectory, Offset: *rec.Offset}}
			if rec.EnteredAt != nil {
				h.EnteredAt = *rec.EnteredAt
			}
			page.Hits = append(page.Hits, h)
			return nil
		case !*rec.Done && rec.Status >= 400 && rec.Status <= 599:
			failed = &StreamError{Status: rec.Status, Msg: rec.Error}
		case *rec.Done && rec.Error == "" && rec.Status == 0:
			page.Count, page.Cursor = rec.Count, rec.Cursor
		default:
			return fmt.Errorf("server: malformed summary record %q", raw)
		}
		sawSummary = true
		return nil
	})
	switch {
	case err != nil:
		return nil, err
	case !sawSummary:
		return nil, fmt.Errorf("server: truncated query stream (no summary record)")
	case failed != nil:
		return nil, failed
	}
	return page, nil
}

// ReadBatch decodes an NDJSON batch (the body of the ingest routes, a
// trace file): one JSON value per non-blank line. An error names the
// record it stopped at as what and its index.
func ReadBatch[T any](r io.Reader, what string) ([]T, error) {
	var recs []T
	err := records(r, func(raw []byte) error {
		var rec T
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("%s %d: %v", what, len(recs), err)
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// records calls fn with each non-blank line of an NDJSON stream, of at
// most maxLine bytes, until fn or the reader fails.
func records(r io.Reader, fn func(raw []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	for sc.Scan() {
		if raw := bytes.TrimSpace(sc.Bytes()); len(raw) > 0 {
			if err := fn(raw); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}
