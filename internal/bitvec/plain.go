package bitvec

import (
	"fmt"
	"math/bits"
)

// Plain is an uncompressed bit vector with a one-level rank directory:
// one 32-bit cumulative count per 512-bit block. Rank scans at most
// eight words after the directory lookup, which is effectively O(1).
type Plain struct {
	words  []uint64
	n      int
	blocks []uint32 // cumulative rank1 at the start of each 512-bit block
	ones   int
}

const plainBlockWords = 8 // 512 bits per rank block

// NewPlain wraps the given words (little-endian bit order within each
// word: bit i of the vector is words[i/64]>>(i%64)&1) as a rank-indexed
// vector of n bits. The words slice is retained, not copied; bits at
// positions >= n are ignored by construction (they must be zero in the
// final partial word for SizeBits accounting to be exact, which Builder
// guarantees).
func NewPlain(words []uint64, n int) *Plain {
	need := (n + 63) / 64
	if len(words) < need {
		w := make([]uint64, need)
		copy(w, words)
		words = w
	}
	nb := (need + plainBlockWords - 1) / plainBlockWords
	blocks := make([]uint32, nb+1)
	cum := 0
	for b := 0; b < nb; b++ {
		blocks[b] = uint32(cum)
		end := (b + 1) * plainBlockWords
		if end > need {
			end = need
		}
		for w := b * plainBlockWords; w < end; w++ {
			cum += bits.OnesCount64(words[w])
		}
	}
	blocks[nb] = uint32(cum)
	return &Plain{words: words[:need], n: n, blocks: blocks, ones: cum}
}

// Len returns the number of bits stored.
func (p *Plain) Len() int { return p.n }

// Ones returns the total number of set bits.
func (p *Plain) Ones() int { return p.ones }

// Get reports whether bit i is set.
func (p *Plain) Get(i int) bool {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("bitvec: Get(%d) out of range [0,%d)", i, p.n))
	}
	return p.words[i>>6]>>(uint(i)&63)&1 == 1
}

// Rank1 returns the number of set bits in [0, i).
func (p *Plain) Rank1(i int) int {
	if i < 0 || i > p.n {
		panic(fmt.Sprintf("bitvec: Rank1(%d) out of range [0,%d]", i, p.n))
	}
	block := i >> 9 // /512
	r := int(p.blocks[block])
	w := block * plainBlockWords
	last := i >> 6
	for ; w < last; w++ {
		r += bits.OnesCount64(p.words[w])
	}
	if rem := uint(i) & 63; rem != 0 {
		r += bits.OnesCount64(p.words[last] & (1<<rem - 1))
	}
	return r
}

// Rank0 returns the number of zero bits in [0, i).
func (p *Plain) Rank0(i int) int { return i - p.Rank1(i) }

// AccessRank1 returns bit i together with Rank1(i) in one lookup — the
// combined operation wavelet-tree access descends on.
func (p *Plain) AccessRank1(i int) (bool, int) {
	return p.Get(i), p.Rank1(i)
}

// SizeBits returns the storage footprint in bits: the raw words plus the
// rank directory.
func (p *Plain) SizeBits() int {
	return len(p.words)*64 + len(p.blocks)*32
}
