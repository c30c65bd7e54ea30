// Package wire holds the JSON shapes of the /v1/{index}/query NDJSON
// protocol and the one decoder for its pages: the server package
// aliases Request as its public QueryRequest, and both the HTTP client
// and the benchmark's replay trace decode pages with ReadPage, so there
// is no second parser to drift from what the daemon writes.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"

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
	q := cinct.Query{Path: qr.Path, Kind: kind, Limit: qr.Limit, Cursor: qr.Cursor}
	if qr.From != nil || qr.To != nil {
		iv := &cinct.Interval{From: math.MinInt64, To: math.MaxInt64}
		if qr.From != nil {
			iv.From = *qr.From
		}
		if qr.To != nil {
			iv.To = *qr.To
		}
		q.Interval = iv
	}
	return q, nil
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

// Page is one decoded page of POST /v1/{index}/query: the hits in
// canonical order, the count reported by the summary record, and the
// resume cursor ("" when the server exhausted the stream).
type Page struct {
	Hits   []cinct.Hit
	Count  int
	Cursor string
}

// StreamError is a mid-stream failure reported by the summary record:
// the earlier hit records form a valid prefix of the result.
type StreamError struct {
	Msg string
}

func (e *StreamError) Error() string { return e.Msg }

// line is the union shape of an NDJSON stream record: a summary line
// carries done/count/cursor/error, a hit line carries
// trajectory/offset/enteredAt. The pointer fields disambiguate.
type line struct {
	Trajectory *int   `json:"trajectory"`
	Offset     *int   `json:"offset"`
	EnteredAt  *int64 `json:"enteredAt"`
	Done       *bool  `json:"done"`
	Count      *int   `json:"count"`
	Cursor     string `json:"cursor"`
	Error      string `json:"error"`
}

// maxLine bounds one NDJSON record; generous, since a record is one
// hit or one summary.
const maxLine = 1 << 20

// ReadPage decodes one NDJSON query stream into a Page. A summary
// record carrying an error returns (*StreamError); a stream that ends
// without a summary record is a transport truncation and errors too.
func ReadPage(r io.Reader) (*Page, error) {
	page := &Page{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	sawSummary := false
	for sc.Scan() {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var rec line
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("server: bad stream record: %w", err)
		}
		switch {
		case rec.Done != nil || rec.Error != "":
			if rec.Error != "" {
				return nil, &StreamError{Msg: rec.Error}
			}
			if rec.Count != nil {
				page.Count = *rec.Count
			}
			page.Cursor = rec.Cursor
			sawSummary = true
		case rec.Trajectory != nil && rec.Offset != nil:
			h := cinct.Hit{Match: cinct.Match{Trajectory: *rec.Trajectory, Offset: *rec.Offset}}
			if rec.EnteredAt != nil {
				h.EnteredAt = *rec.EnteredAt
			}
			page.Hits = append(page.Hits, h)
		default:
			return nil, fmt.Errorf("server: unrecognized stream record %q", raw)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSummary {
		return nil, fmt.Errorf("server: truncated query stream (no summary record)")
	}
	return page, nil
}
