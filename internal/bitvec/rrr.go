package bitvec

import (
	"fmt"
	"math/bits"
)

// RRR is a compressed bit vector following the practical RRR layout of
// Navarro and Providel (SEA 2012). The vector is split into blocks of b
// bits (b in {15, 31, 63}); each block is stored as a fixed-width class
// (its popcount, ceil(lg(b+1)) bits) plus a variable-width enumerative
// offset (ceil(lg C(b,class)) bits) identifying the block among all
// blocks of that class. A sampled directory every superblockFactor
// blocks stores the cumulative rank and the cumulative offset bit
// position, so Rank1 decodes at most superblockFactor class fields plus
// one offset: O(b) time, independent of the vector length.
//
// This is the structure the paper parameterizes by b: larger b gives
// better compression (smaller per-bit overhead h(b) = lg(b+1)/b) but a
// slower in-block rank.
type RRR struct {
	n         int
	blockSize int // b: 15, 31 or 63
	classBits uint
	ones      int
	widths    []uint // widths[c] = offset width of class c (cached table)

	classes packed // one class per block, classBits wide
	offsets packed // variable-width offsets, back to back

	// Sampled directory, one entry per superblock of superblockFactor blocks.
	sampleRank []uint32 // cumulative rank1 at superblock start
	sampleOff  []uint64 // cumulative offset bit position at superblock start
}

const superblockFactor = 32

// NewRRR compresses n bits taken from words (same layout as NewPlain)
// with the given block size, which must be 15, 31 or 63.
func NewRRR(words []uint64, n int, blockSize int) *RRR {
	checkBlockSize(blockSize)
	classBits := uint(bits.Len(uint(blockSize))) // lg(b+1) for b = 2^k - 1
	nBlocks := (n + blockSize - 1) / blockSize
	r := &RRR{
		n:         n,
		blockSize: blockSize,
		classBits: classBits,
		widths:    offsetWidths[blockSize],
	}
	r.classes.grow(nBlocks * int(classBits))
	nSuper := (nBlocks + superblockFactor - 1) / superblockFactor
	r.sampleRank = make([]uint32, nSuper+1)
	r.sampleOff = make([]uint64, nSuper+1)

	cumRank := 0
	for blk := 0; blk < nBlocks; blk++ {
		if blk%superblockFactor == 0 {
			sb := blk / superblockFactor
			r.sampleRank[sb] = uint32(cumRank)
			r.sampleOff[sb] = uint64(r.offsets.lenBits)
		}
		lo := blk * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		v := extractBits(words, lo, hi-lo)
		c := bits.OnesCount64(v)
		r.classes.append(uint64(c), classBits)
		w := offsetWidth(blockSize, c)
		if w > 0 {
			r.offsets.append(encodeOffset(v, blockSize, c), w)
		}
		cumRank += c
	}
	r.sampleRank[nSuper] = uint32(cumRank)
	r.sampleOff[nSuper] = uint64(r.offsets.lenBits)
	r.ones = cumRank
	return r
}

func checkBlockSize(blockSize int) {
	switch blockSize {
	case 15, 31, 63:
	default:
		panic(fmt.Sprintf("bitvec: RRR block size must be 15, 31 or 63; got %d", blockSize))
	}
}

// Len returns the number of bits stored.
func (r *RRR) Len() int { return r.n }

// Ones returns the total number of set bits.
func (r *RRR) Ones() int { return r.ones }

// BlockSize returns the RRR block parameter b.
func (r *RRR) BlockSize() int { return r.blockSize }

// Rank1 returns the number of set bits in [0, i).
func (r *RRR) Rank1(i int) int {
	if i < 0 || i > r.n {
		panic(fmt.Sprintf("bitvec: Rank1(%d) out of range [0,%d]", i, r.n))
	}
	if i == 0 {
		return 0
	}
	blk := i / r.blockSize
	rem := i % r.blockSize
	sb := blk / superblockFactor
	rank := int(r.sampleRank[sb])
	offPos := int(r.sampleOff[sb])
	cb := int(r.classBits)
	mask := uint64(1)<<r.classBits - 1
	pos := sb * superblockFactor * cb
	words := r.classes.words
	for j := sb * superblockFactor; j < blk; j++ {
		w := pos >> 6
		sh := uint(pos & 63)
		v := words[w] >> sh
		if sh+r.classBits > 64 {
			v |= words[w+1] << (64 - sh)
		}
		c := int(v & mask)
		pos += cb
		rank += c
		offPos += int(r.widths[c])
	}
	if rem > 0 {
		c := int(r.classes.read(blk*cb, r.classBits))
		off := r.offsets.read(offPos, r.widths[c])
		rank += rankOffset(off, r.blockSize, c, rem)
	}
	return rank
}

// Rank0 returns the number of zero bits in [0, i).
func (r *RRR) Rank0(i int) int { return i - r.Rank1(i) }

// Get reports whether bit i is set.
func (r *RRR) Get(i int) bool {
	bit, _ := r.AccessRank1(i)
	return bit
}

// AccessRank1 returns bit i together with Rank1(i) in a single block
// decode — one third the cost of separate Get and Rank1 calls, and the
// operation Algorithm 4's extraction loop lives on.
func (r *RRR) AccessRank1(i int) (bool, int) {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("bitvec: AccessRank1(%d) out of range [0,%d)", i, r.n))
	}
	blk := i / r.blockSize
	rem := i % r.blockSize
	sb := blk / superblockFactor
	rank := int(r.sampleRank[sb])
	offPos := int(r.sampleOff[sb])
	cb := int(r.classBits)
	mask := uint64(1)<<r.classBits - 1
	pos := sb * superblockFactor * cb
	words := r.classes.words
	for j := sb * superblockFactor; j < blk; j++ {
		w := pos >> 6
		sh := uint(pos & 63)
		v := words[w] >> sh
		if sh+r.classBits > 64 {
			v |= words[w+1] << (64 - sh)
		}
		c := int(v & mask)
		pos += cb
		rank += c
		offPos += int(r.widths[c])
	}
	c := int(r.classes.read(blk*cb, r.classBits))
	off := r.offsets.read(offPos, r.widths[c])
	inRank, bit := accessRankOffset(off, r.blockSize, c, rem)
	return bit, rank + inRank
}

// SizeBits returns the storage footprint in bits: classes, offsets and
// the sampled directory.
func (r *RRR) SizeBits() int {
	return r.classes.lenBits + r.offsets.lenBits +
		len(r.sampleRank)*32 + len(r.sampleOff)*64
}

// extractBits reads width bits (width <= 63) starting at bit position
// pos from the word array.
func extractBits(words []uint64, pos, width int) uint64 {
	if width == 0 {
		return 0
	}
	w := pos >> 6
	sh := uint(pos & 63)
	v := words[w] >> sh
	if sh+uint(width) > 64 && w+1 < len(words) {
		v |= words[w+1] << (64 - sh)
	}
	return v & (1<<uint(width) - 1)
}
