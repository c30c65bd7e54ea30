package cinct

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Kind selects what a Query produces.
type Kind uint8

const (
	// Occurrences yields every occurrence of the path as a (Trajectory,
	// Offset) hit in canonical order; the same trajectory appears once
	// per occurrence.
	Occurrences Kind = iota
	// Trajectories yields each distinct trajectory containing the path
	// exactly once, in ascending ID order, with Offset == -1.
	Trajectories
	// CountOnly computes the occurrence count without yielding hits: the
	// O(|path|) backward search, or a locate-and-filter scan under an
	// Interval.
	CountOnly
)

// String returns the wire spelling used by the HTTP query endpoint.
func (k Kind) String() string {
	switch k {
	case Occurrences:
		return "occurrences"
	case Trajectories:
		return "trajectories"
	case CountOnly:
		return "count"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// KindFromString parses the wire spelling of a Kind; the empty string
// means Occurrences (the endpoint default).
func KindFromString(s string) (Kind, error) {
	switch s {
	case "", "occurrences":
		return Occurrences, nil
	case "trajectories":
		return Trajectories, nil
	case "count":
		return CountOnly, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %q", ErrBadQuery, s)
}

// Interval is a closed timestamp range [From, To]. An empty range
// (From > To) matches nothing.
type Interval struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// Query is the one declarative descriptor behind every retrieval
// operation: a path constraint, an optional temporal constraint, the
// result kind, and paging — executed by Search on an Index, a Writer,
// the engine or (as the body of POST /v1/{index}/query) the daemon.
type Query struct {
	// Path is the edge sequence in travel order. An empty path matches
	// nothing.
	Path []uint32
	// Interval restricts hits to occurrences whose first edge was
	// entered within the interval (the strict path query). nil means no
	// temporal constraint. Non-nil requires an index with timestamps.
	Interval *Interval
	// Kind selects the result shape.
	Kind Kind
	// Limit bounds the number of hits: 0 means unlimited, negative is
	// an error (the one limit rule, enforced at every layer). CountOnly
	// ignores Limit.
	Limit int
	// Cursor resumes a previous Search just past the last hit it
	// yielded (see Results.Cursor). It must come from the same query
	// shape (path, interval, kind); Limit may differ between pages.
	// Empty starts from the beginning. CountOnly ignores Cursor.
	Cursor string
}

var (
	// ErrBadQuery reports a Query that violates the descriptor rules
	// (negative limit, unknown kind).
	ErrBadQuery = errors.New("cinct: bad query")
	// ErrBadCursor reports a Query.Cursor that is malformed or was
	// issued for a different query shape.
	ErrBadCursor = errors.New("cinct: bad cursor")
	// ErrNoTimestamps reports an interval-constrained Query executed
	// against an index without timestamp columns.
	ErrNoTimestamps = errors.New("cinct: interval query on index without timestamps")
)

// validate enforces the descriptor rules shared by every layer.
func (q Query) validate() error {
	if q.Limit < 0 {
		return fmt.Errorf("%w: negative limit %d (0 means unlimited)", ErrBadQuery, q.Limit)
	}
	switch q.Kind {
	case Occurrences, Trajectories, CountOnly:
		return nil
	}
	return fmt.Errorf("%w: unknown kind %d", ErrBadQuery, uint8(q.Kind))
}

// MarshalBinary returns the canonical byte encoding of the query — the
// value the engine hashes for cache keys. Two queries are semantically
// identical iff their encodings are byte-identical: every field lives
// in a self-delimiting slot, so no two distinct descriptors can
// collide. It validates the descriptor first.
func (q Query) MarshalBinary() ([]byte, error) {
	if err := q.validate(); err != nil {
		return nil, err
	}
	b := make([]byte, 0, 16+4*len(q.Path)+len(q.Cursor))
	b = append(b, 1, byte(q.Kind)) // encoding version, kind
	b = binary.AppendVarint(b, int64(q.Limit))
	if q.Interval != nil {
		b = append(b, 1)
		b = binary.AppendVarint(b, q.Interval.From)
		b = binary.AppendVarint(b, q.Interval.To)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(q.Cursor)))
	b = append(b, q.Cursor...)
	b = binary.AppendUvarint(b, uint64(len(q.Path)))
	for _, e := range q.Path {
		b = binary.AppendUvarint(b, uint64(e))
	}
	return b, nil
}

// fingerprint hashes the resumable shape of the query — kind, path and
// interval, but not Limit or Cursor — so a cursor binds to the result
// sequence it positions into, independent of page size. Like
// MarshalBinary, every field occupies a self-delimiting slot (interval
// presence byte, path length prefix): without those, a spatial query's
// path bytes could mimic another query's interval bounds and a foreign
// cursor would validate instead of failing.
func (q Query) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	buf[0] = byte(q.Kind)
	if q.Interval != nil {
		buf[1] = 1
	}
	h.Write(buf[:2])
	if q.Interval != nil {
		binary.LittleEndian.PutUint64(buf[:8], uint64(q.Interval.From))
		h.Write(buf[:8])
		binary.LittleEndian.PutUint64(buf[:8], uint64(q.Interval.To))
		h.Write(buf[:8])
	}
	binary.LittleEndian.PutUint64(buf[:8], uint64(len(q.Path)))
	h.Write(buf[:8])
	for _, e := range q.Path {
		binary.LittleEndian.PutUint32(buf[:4], e)
		h.Write(buf[:4])
	}
	return h.Sum64()
}

const cursorVersion = 1

// CursorAfter returns the opaque cursor that resumes this query just
// past hit h — the token Results.Cursor hands out after a bounded
// page. It is exported so replaying layers (the engine cache, the HTTP
// client) can mint the same token for a partially consumed page.
func (q Query) CursorAfter(h Hit) string {
	b := make([]byte, 0, 1+8+2*binary.MaxVarintLen64)
	b = append(b, cursorVersion)
	b = binary.LittleEndian.AppendUint64(b, q.fingerprint())
	b = binary.AppendVarint(b, int64(h.Trajectory))
	b = binary.AppendVarint(b, int64(h.Offset))
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeCursor unpacks q.Cursor into the exclusive resume position:
// hits at or before (afterTraj, afterOff) in canonical order are
// skipped. ok is false when the query carries no cursor.
func (q Query) decodeCursor() (afterTraj, afterOff int, ok bool, err error) {
	if q.Cursor == "" {
		return 0, 0, false, nil
	}
	raw, derr := base64.RawURLEncoding.DecodeString(q.Cursor)
	if derr != nil || len(raw) < 1+8 || raw[0] != cursorVersion {
		return 0, 0, false, fmt.Errorf("%w: malformed token", ErrBadCursor)
	}
	if binary.LittleEndian.Uint64(raw[1:9]) != q.fingerprint() {
		return 0, 0, false, fmt.Errorf("%w: cursor was issued for a different query", ErrBadCursor)
	}
	rest := raw[9:]
	traj, n := binary.Varint(rest)
	if n <= 0 {
		return 0, 0, false, fmt.Errorf("%w: malformed token", ErrBadCursor)
	}
	off, m := binary.Varint(rest[n:])
	if m <= 0 || n+m != len(rest) {
		return 0, 0, false, fmt.Errorf("%w: malformed token", ErrBadCursor)
	}
	return int(traj), int(off), true, nil
}
