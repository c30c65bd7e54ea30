// Package bitvec provides succinct bit vectors with constant-time rank
// support: a plain (uncompressed) vector with a two-level rank directory,
// and a compressed vector implementing the practical RRR scheme of
// Navarro and Providel ("Fast, small, simple rank/select on bitmaps",
// SEA 2012), which is the representation CiNCT stores its wavelet-tree
// levels in.
package bitvec

import "math/bits"

// Vector is the read interface shared by plain and RRR bit vectors.
//
// All implementations answer Rank1(i) — the number of set bits in the
// prefix [0, i) — in time independent of the vector length (O(1) for the
// plain vector, O(b) for RRR with block size b).
type Vector interface {
	// Len returns the number of bits stored.
	Len() int
	// Get reports whether bit i is set. It panics if i is out of range.
	Get(i int) bool
	// Rank1 returns the number of set bits in [0, i). i may equal Len().
	Rank1(i int) int
	// Rank0 returns the number of zero bits in [0, i).
	Rank0(i int) int
	// Ones returns the total number of set bits, Rank1(Len()), from a
	// stored field — O(1) for every implementation.
	Ones() int
	// AccessRank1 returns (Get(i), Rank1(i)) in one lookup — the
	// combined operation wavelet-structure access descends on.
	AccessRank1(i int) (bool, int)
	// SizeBits returns the storage footprint of the structure in bits,
	// including rank directories. Used by the size experiments.
	SizeBits() int
}

// Builder accumulates bits one at a time and can emit either a plain or
// an RRR-compressed vector.
type Builder struct {
	words []uint64
	n     int
}

// NewBuilder returns a Builder with capacity for sizeHint bits.
func NewBuilder(sizeHint int) *Builder {
	return &Builder{words: make([]uint64, 0, (sizeHint+63)/64)}
}

// PushBit appends one bit.
func (b *Builder) PushBit(bit bool) {
	w := b.n >> 6
	if w == len(b.words) {
		b.words = append(b.words, 0)
	}
	if bit {
		b.words[w] |= 1 << uint(b.n&63)
	}
	b.n++
}

// Len returns the number of bits pushed so far.
func (b *Builder) Len() int { return b.n }

// Plain builds an uncompressed rank-indexed vector from the pushed bits.
func (b *Builder) Plain() *Plain { return NewPlain(b.words, b.n) }

// RRR builds an RRR-compressed vector with the given block size
// (must be one of 15, 31, 63) from the pushed bits.
func (b *Builder) RRR(blockSize int) *RRR { return NewRRR(b.words, b.n, blockSize) }

// FlatWords returns the words Plain and RRR(blockSize) would occupy in
// a kind-tagged flat stream (AppendVector), headers, directories and
// guard words included. RRR is priced from the block classes alone, so
// choosing between the two never pays for encoding an offset.
func (b *Builder) FlatWords(blockSize int) (plain, rrr int) {
	checkBlockSize(blockSize)
	widths := offsetWidths[blockSize]
	offLen := 0
	for lo := 0; lo < b.n; lo += blockSize {
		v := extractBits(b.words, lo, min(blockSize, b.n-lo))
		offLen += int(widths[bits.OnesCount64(v)])
	}
	return plainFlatWords(b.n), rrrFlatWords(b.n, blockSize, offLen)
}
