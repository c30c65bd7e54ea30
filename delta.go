package cinct

import (
	"context"
	"fmt"

	"cinct/internal/trajstr"
)

// deltaShard is the uncompressed in-memory tail of a live corpus: the
// trajectories appended since the last seal, stored as plain edge
// slices (plus timestamp columns on temporal writers) so an Append is
// O(len) with no index rebuild. The shard is append-only — rows, once
// published, are never modified — which is what makes the lock-free
// snapshot protocol below sound: a reader that captured the slice
// headers and length under the Writer's lock can keep scanning its
// prefix while later appends extend the same backing arrays.
//
// Query support is a brute-force scan: the delta is bounded by the
// seal threshold, so O(rows × len) matching is cheaper than
// maintaining any incremental index, and it plugs into the same
// streaming Search core as the compressed shards (one more unit,
// after the last shard).
type deltaShard struct {
	// base is the global ID of the delta's first trajectory: all
	// sealed trajectories sort before every delta trajectory, which is
	// what keeps the canonical (Trajectory, Offset) merge a plain
	// concatenation across the seal boundary.
	base  int
	trajs [][]uint32
	// times is non-nil exactly when the owning Writer is temporal;
	// times[k] is aligned with trajs[k].
	times [][]int64
	// mins/maxs are the per-trajectory (min, max) timestamp summaries,
	// maintained incrementally on Append so interval queries prune
	// delta rows exactly like sealed ones — without them every
	// interval Search would scan timestamp columns the summaries could
	// have rejected.
	mins, maxs []int64
}

func newDeltaShard(base int, temporal bool) *deltaShard {
	d := &deltaShard{base: base}
	if temporal {
		d.times = [][]int64{}
	}
	return d
}

// append adds one row. The caller (Writer) holds the write lock and
// has already validated shape; edges/times are cloned so the caller's
// buffers stay free for reuse.
func (d *deltaShard) append(edges []uint32, times []int64) {
	row := make([]uint32, len(edges))
	copy(row, edges)
	d.trajs = append(d.trajs, row)
	if d.times == nil {
		return
	}
	col := make([]int64, len(times))
	copy(col, times)
	d.times = append(d.times, col)
	lo, hi := col[0], col[0]
	for _, t := range col[1:] {
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	d.mins = append(d.mins, lo)
	d.maxs = append(d.maxs, hi)
}

// tail returns the delta that remains after sealing the first n rows:
// same backing arrays (rows past n were appended during the seal's
// build phase and stay live), base advanced past the sealed prefix.
func (d *deltaShard) tail(n int) *deltaShard {
	nd := &deltaShard{base: d.base + n, trajs: d.trajs[n:]}
	if d.times != nil {
		nd.times = d.times[n:]
		nd.mins = d.mins[n:]
		nd.maxs = d.maxs[n:]
	}
	return nd
}

// deltaSnap is an immutable view of the delta's published prefix,
// captured under the Writer's lock. The slice headers pin the length;
// concurrent appends only ever write past it.
type deltaSnap struct {
	base       int
	trajs      [][]uint32
	times      [][]int64
	mins, maxs []int64
}

// snap captures the current published prefix. Caller holds at least a
// read lock.
func (d *deltaShard) snap() *deltaSnap {
	return &deltaSnap{base: d.base, trajs: d.trajs, times: d.times, mins: d.mins, maxs: d.maxs}
}

func (s *deltaSnap) len() int { return len(s.trajs) }

// locate enumerates every occurrence of path in the snapshot,
// mirroring shard.locate: visit(local trajectory, travel
// offset), ctx checked periodically, rows scanned accounted into st.
// Occurrences are produced in canonical order by construction (rows
// ascending, offsets ascending), but callers do not rely on that —
// they sort like any other unit.
func (s *deltaSnap) locate(ctx context.Context, path []uint32, st *QueryStats, visit func(doc, offset int)) error {
	if len(path) == 0 {
		return nil
	}
	for k, tr := range s.trajs {
		if k&255 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.DeltaRows++
	scan:
		for off := 0; off+len(path) <= len(tr); off++ {
			for i, e := range path {
				if tr[off+i] != e {
					continue scan
				}
			}
			visit(k, off)
		}
	}
	return nil
}

// minMax returns the row's timestamp summary; at probes one entry.
// Both panic on a spatial snapshot, exactly like a nil tempo.Store —
// Search only calls them under an interval, which Writer.Search gates
// on temporality.
func (s *deltaSnap) minMax(k int) (int64, int64) { return s.mins[k], s.maxs[k] }
func (s *deltaSnap) at(k, i int) int64           { return s.times[k][i] }

// MatchRow tests one trajectory row against a path+interval predicate
// and reports the first (canonically smallest) matching occurrence:
// its travel offset and, when times is non-nil, the entry time of the
// match's first edge. It is the standing-query evaluation primitive —
// notification layers run it against every freshly landed row — and it
// reuses the delta's brute-force scan machinery by wrapping the row as
// a one-row snapshot, so its semantics are exactly those of a Search
// against the live delta: iv (nil = unconstrained) filters on the
// entry time of the first matched edge, closed on both ends. A non-nil
// iv with nil times never matches (the row cannot satisfy a temporal
// predicate it has no timestamps for).
func MatchRow(edges []uint32, times []int64, path []uint32, iv *Interval) (offset int, enteredAt int64, ok bool) {
	if len(path) == 0 || (iv != nil && times == nil) {
		return 0, 0, false
	}
	s := &deltaSnap{trajs: [][]uint32{edges}, times: [][]int64{times}}
	var st QueryStats
	found := false
	// locate visits offsets in ascending order; keep the first survivor.
	s.locate(context.Background(), path, &st, func(_, off int) { //nolint:errcheck // background ctx never cancels
		if found {
			return
		}
		var at int64
		if times != nil {
			at = s.at(0, off)
			if iv != nil && (at < iv.From || at > iv.To) {
				return
			}
		}
		offset, enteredAt, found = off, at, true
	})
	return offset, enteredAt, found
}

// ErrBadAppend reports an Append rejected before touching the index:
// an empty trajectory, or timestamps that disagree with the writer's
// temporality or the trajectory length.
var ErrBadAppend = fmt.Errorf("cinct: bad append")

// validateAppend checks one row against the writer's shape contract.
func validateAppend(edges []uint32, times []int64, temporal bool) error {
	if len(edges) == 0 {
		return fmt.Errorf("%w: %v", ErrBadAppend, trajstr.ErrEmptyTrajectory)
	}
	switch {
	case temporal && len(times) != len(edges):
		return fmt.Errorf("%w: %d timestamps for %d edges", ErrBadAppend, len(times), len(edges))
	case !temporal && times != nil:
		return fmt.Errorf("%w: timestamps on a spatial writer", ErrBadAppend)
	}
	return nil
}
