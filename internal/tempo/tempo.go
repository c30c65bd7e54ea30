// Package tempo stores per-edge timestamps for trajectory corpora in
// delta-compressed form. The paper deliberately leaves timestamp
// compression orthogonal (§I, §VII) but positions CiNCT as the spatial
// half of systems like SNT-index [6] and CTR [3] that answer *strict
// path queries* — "find trajectories that traveled path P within time
// interval I". This package supplies the temporal half: lossless
// delta+varint columns (the choice of [3]), block-structured so random
// access decodes at most one block instead of the whole column prefix,
// with per-trajectory (min, max) summaries that let interval queries
// skip entire trajectories without touching the compressed blob.
package tempo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// BlockSize is the checkpoint spacing: At decodes at most BlockSize
// varints. 64 keeps the checkpoint overhead near 2 bits/entry while
// making random access ~len/128 times cheaper than a prefix decode on
// average.
const BlockSize = 64

// Store holds one timestamp column per trajectory, delta-compressed
// with absolute checkpoints every BlockSize entries.
type Store struct {
	// blob holds zig-zag varint deltas, all trajectories back to back.
	blob []byte
	// starts[k] is the byte offset of trajectory k's column. int64:
	// int32 silently overflowed once the blob crossed 2 GiB — exactly
	// the massive-corpus regime the store exists for.
	starts []int64
	// lens[k] is the entry count of trajectory k.
	lens []int32
	// Checkpoints: for column k and block b >= 1, entry
	// ckStart[k]+b-1 records the absolute timestamp of element
	// b*BlockSize and the byte offset (relative to starts[k]) just
	// past its varint, so decoding resumes mid-column. Block 0 needs
	// none (prev = 0 at the column start).
	ckTime  []int64
	ckOff   []int64
	ckStart []int64 // len = NumTrajectories()+1; column k owns [ckStart[k], ckStart[k+1])
	// Per-trajectory summaries for interval pushdown. An empty column
	// has min > max so it never intersects any interval.
	mins, maxs []int64
	// atSteps counts varint decodes performed by At (instrumentation
	// for early-exit and checkpoint regression tests).
	atSteps atomic.Int64
}

// ErrCorrupt reports a flat store whose tables do not fit its blob.
var ErrCorrupt = errors.New("tempo: corrupt timestamp store")

// New builds a store. times[k][i] is the entry time (any int64 clock)
// of trajectory k's i-th edge; len(times[k]) must equal the trajectory
// length. Timestamps need not be monotone (zig-zag coding), though
// they almost always are, which is what makes deltas small.
func New(times [][]int64) *Store {
	s := &Store{
		lens:    make([]int32, len(times)),
		starts:  make([]int64, len(times)),
		ckStart: make([]int64, len(times)+1),
		mins:    make([]int64, len(times)),
		maxs:    make([]int64, len(times)),
	}
	var buf [binary.MaxVarintLen64]byte
	for k, col := range times {
		s.lens[k] = int32(len(col))
		s.starts[k] = int64(len(s.blob))
		s.ckStart[k] = int64(len(s.ckTime))
		prev := int64(0)
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i, t := range col {
			s.blob = append(s.blob, buf[:binary.PutVarint(buf[:], t-prev)]...)
			prev = t
			lo, hi = min(lo, t), max(hi, t)
			if i > 0 && i%BlockSize == 0 {
				s.ckTime = append(s.ckTime, t)
				s.ckOff = append(s.ckOff, int64(len(s.blob))-s.starts[k])
			}
		}
		s.mins[k], s.maxs[k] = lo, hi
	}
	s.ckStart[len(times)] = int64(len(s.ckTime))
	return s
}

// NumTrajectories returns the number of columns.
func (s *Store) NumTrajectories() int { return len(s.starts) }

// Len returns the entry count of trajectory k.
func (s *Store) Len(k int) int { return int(s.lens[k]) }

// MinMax returns the smallest and largest timestamp of trajectory k.
// An interval query skips column k entirely when [from, to] does not
// intersect [min, max] — no blob bytes are touched. For an empty
// column min > max, so it intersects nothing.
func (s *Store) MinMax(k int) (min, max int64) { return s.mins[k], s.maxs[k] }

// Column decodes the full timestamp column of trajectory k.
func (s *Store) Column(k int) []int64 {
	out := make([]int64, s.lens[k])
	pos := s.starts[k]
	prev := int64(0)
	for i := range out {
		d, n := binary.Varint(s.blob[pos:])
		pos += int64(n)
		prev += d
		out[i] = prev
	}
	return out
}

// At returns the timestamp of trajectory k's edge i, decoding at most
// BlockSize varints: it resumes from the nearest preceding checkpoint
// instead of the column start.
func (s *Store) At(k, i int) int64 {
	v, _ := s.AtCounted(k, i)
	return v
}

// AtCounted is At plus the number of varint decodes this one probe
// performed — the per-probe decode cost the serving layers account
// against queries. The store-global AtSteps counter accumulates the
// same quantity across probes.
func (s *Store) AtCounted(k, i int) (v int64, decodes int) {
	if i < 0 || i >= int(s.lens[k]) {
		panic(fmt.Sprintf("tempo: At(%d,%d) out of range [0,%d)", k, i, s.lens[k]))
	}
	pos := s.starts[k]
	prev := int64(0)
	steps := i + 1
	if b := i / BlockSize; b > 0 {
		ck := s.ckStart[k] + int64(b) - 1
		prev = s.ckTime[ck]
		pos += s.ckOff[ck]
		steps = i - b*BlockSize
	}
	s.atSteps.Add(int64(steps))
	for j := 0; j < steps; j++ {
		d, n := binary.Varint(s.blob[pos:])
		pos += int64(n)
		prev += d
	}
	return prev, steps
}

// AtSteps returns the cumulative number of varint decodes performed by
// At since construction (or the last ResetAtSteps). Tests use it to
// prove that checkpointed access and limit early-exit actually bound
// the decode work.
func (s *Store) AtSteps() int64 { return s.atSteps.Load() }

// ResetAtSteps zeroes the At decode counter.
func (s *Store) ResetAtSteps() { s.atSteps.Store(0) }

// SizeBits returns the in-memory footprint of the compressed blob plus
// every random-access structure at its actual width.
func (s *Store) SizeBits() int {
	return len(s.blob)*8 +
		len(s.starts)*64 + len(s.lens)*32 +
		len(s.ckTime)*64 + len(s.ckOff)*64 + len(s.ckStart)*64 +
		(len(s.mins)+len(s.maxs))*64
}
