package bitvec

import (
	"fmt"
	"math/bits"
)

// PackedInts is an immutable fixed-width packed integer array: n values
// of `width` bits each, width ≤ 64. It backs the C array and the
// compacted ET-graph, whose naive Go representations (64-bit slices)
// would otherwise dominate the index size on large alphabets.
type PackedInts struct {
	words []uint64
	width uint
	n     int
}

// PackInts packs vals at the minimum width that fits the largest value
// (at least 1 bit).
func PackInts(vals []uint64) *PackedInts {
	var maxV uint64
	for _, v := range vals {
		if v > maxV {
			maxV = v
		}
	}
	width := uint(bits.Len64(maxV))
	if width == 0 {
		width = 1
	}
	return PackIntsWidth(vals, width)
}

// PackIntsWidth packs vals at an explicit width; values must fit.
func PackIntsWidth(vals []uint64, width uint) *PackedInts {
	if width == 0 || width > 64 {
		panic(fmt.Sprintf("bitvec: invalid pack width %d", width))
	}
	p := &PackedInts{
		words: make([]uint64, (len(vals)*int(width)+63)/64),
		width: width,
		n:     len(vals),
	}
	for i, v := range vals {
		if width < 64 && v >= 1<<width {
			panic(fmt.Sprintf("bitvec: value %d does not fit in %d bits", v, width))
		}
		pos := i * int(width)
		w := pos >> 6
		sh := uint(pos & 63)
		p.words[w] |= v << sh
		if sh+width > 64 {
			p.words[w+1] |= v >> (64 - sh)
		}
	}
	return p
}

// Len returns the element count.
func (p *PackedInts) Len() int { return p.n }

// Width returns the per-element width in bits.
func (p *PackedInts) Width() uint { return p.width }

// Get returns element i. It is cheap enough to inline into the LF
// step and the locate walk: the range panic carries a constant message,
// and the mask needs no width-64 case since 1<<64 is 0 for a uint64.
func (p *PackedInts) Get(i int) uint64 {
	if uint(i) >= uint(p.n) {
		panic("bitvec: PackedInts.Get index out of range")
	}
	pos := uint(i) * p.width
	w := pos >> 6
	sh := pos & 63
	v := p.words[w] >> sh
	if sh+p.width > 64 {
		v |= p.words[w+1] << (64 - sh)
	}
	return v & (1<<p.width - 1)
}

// SizeBits returns the storage footprint.
func (p *PackedInts) SizeBits() int { return len(p.words)*64 + 64 }

// ZigZag maps a signed value to unsigned so small magnitudes pack
// small.
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag inverts ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
