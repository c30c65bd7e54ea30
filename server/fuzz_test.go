package server

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"

	"cinct"
)

// FuzzQueryUnmarshal pins the wire-to-descriptor path of POST
// /v1/{index}/query, through the handler's own strict decoder: any body
// either produces a Query whose canonical encoding round-trips, or
// fails with a typed error (errBadRequest for a malformed, padded or
// misspelt body, cinct.ErrBadQuery for descriptor violations) — never a
// panic.
func FuzzQueryUnmarshal(f *testing.F) {
	f.Add([]byte(`{"path":[1,2,3]}`))
	f.Add([]byte(`{"path":[1],"kind":"count","limit":10}`))
	f.Add([]byte(`{"path":[2,3],"kind":"trajectories","from":0,"to":999,"cursor":"AQ"}`))
	f.Add([]byte(`{"path":[4294967295],"limit":-1}`))
	f.Add([]byte(`{"kind":"nosuch"}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"path":[1,2],"limt":10}`))
	f.Add([]byte(`{"path":[1,2]}{"path":[3]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		req, err := decodeQueryRequest(nil, io.NopCloser(bytes.NewReader(data)))
		if err != nil {
			if !errors.Is(err, errBadRequest) {
				t.Fatalf("decodeQueryRequest: untyped error %v", err)
			}
			return // rejected before any cinct code runs
		}
		q, err := req.Query()
		if err != nil {
			if !errors.Is(err, cinct.ErrBadQuery) {
				t.Fatalf("Query(): untyped error %v", err)
			}
			return
		}
		enc, err := q.MarshalBinary()
		if err != nil {
			if !errors.Is(err, cinct.ErrBadQuery) {
				t.Fatalf("MarshalBinary: untyped error %v", err)
			}
			return
		}
		if len(enc) == 0 {
			t.Fatal("MarshalBinary returned empty encoding")
		}
		// The wire round trip must be loss-free: re-rendering the
		// descriptor and converting back yields the same encoding.
		q2, err := WireQuery(q).Query()
		if err != nil {
			t.Fatalf("WireQuery round trip: %v", err)
		}
		enc2, err := q2.MarshalBinary()
		if err != nil {
			t.Fatalf("WireQuery round trip encode: %v", err)
		}
		if string(enc) != string(enc2) {
			t.Fatalf("round trip changed the query: %x vs %x", enc, enc2)
		}
	})
}

// FuzzAppendHit pins the stream's append encoder to EncodeJSON over
// arbitrary hit records, with and without an entry time.
func FuzzAppendHit(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0), false)
	f.Add(int64(3), int64(-1), int64(-5), true)
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), int64(math.MinInt64), true)
	f.Fuzz(func(t *testing.T, traj, off, at int64, timed bool) {
		rec := QueryHit{Trajectory: int(traj), Offset: int(off)}
		if timed {
			rec.EnteredAt = &at
		}
		checkAppendHit(t, rec)
	})
}
