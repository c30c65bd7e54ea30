package wavelet

import (
	"fmt"
	"math/bits"

	"cinct/internal/bitvec"
)

// WM is a wavelet matrix (Claude & Navarro, SPIRE 2012): a balanced,
// pointerless alternative to the wavelet tree. Level l stores bit l
// (from the MSB) of every symbol after stable-partitioning the previous
// level by its bits; zeros[l] counts the zero bits at level l. Rank and
// access cost ceil(lg sigma) bit-vector ranks regardless of symbol
// frequency — which is why the paper's UFMI/ICB-WM baselines slow down
// as the alphabet grows while CiNCT does not.
type WM struct {
	n      int
	sigma  int
	levels []bitvec.Vector
	zeros  []int
}

// NewWM builds a wavelet matrix over seq with symbols in [0, sigma).
func NewWM(seq []uint32, sigma int, spec BitvecSpec) *WM {
	if sigma < 1 {
		sigma = 1
	}
	nLevels := bits.Len(uint(sigma - 1))
	if nLevels == 0 {
		nLevels = 1
	}
	w := &WM{n: len(seq), sigma: sigma,
		levels: make([]bitvec.Vector, nLevels),
		zeros:  make([]int, nLevels)}

	cur := make([]uint32, len(seq))
	copy(cur, seq)
	next := make([]uint32, len(seq))
	for l := 0; l < nLevels; l++ {
		shift := uint(nLevels - 1 - l)
		bld := bitvec.NewBuilder(len(cur))
		nz := 0
		for _, s := range cur {
			if int(s) >= sigma {
				panic(fmt.Sprintf("wavelet: symbol %d out of alphabet [0,%d)", s, sigma))
			}
			one := s>>shift&1 == 1
			bld.PushBit(one)
			if !one {
				nz++
			}
		}
		w.levels[l] = spec.build(bld)
		w.zeros[l] = nz
		// Stable partition: zeros first, then ones.
		zi, oi := 0, nz
		for _, s := range cur {
			if s>>shift&1 == 0 {
				next[zi] = s
				zi++
			} else {
				next[oi] = s
				oi++
			}
		}
		cur, next = next, cur
	}
	return w
}

// Len returns the sequence length.
func (w *WM) Len() int { return w.n }

// Sigma returns the alphabet bound.
func (w *WM) Sigma() int { return w.sigma }

// Access returns the i-th symbol.
func (w *WM) Access(i int) uint32 {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("wavelet: Access(%d) out of range [0,%d)", i, w.n))
	}
	var sym uint32
	for l, bv := range w.levels {
		sym <<= 1
		bit, r1 := bv.AccessRank1(i)
		if bit {
			sym |= 1
			i = w.zeros[l] + r1
		} else {
			i -= r1
		}
	}
	return sym
}

// AccessRank returns the i-th symbol and its rank up to i: the access
// descent yields start(c) + rank, and a second zl-guided walk recovers
// start(c).
func (w *WM) AccessRank(i int) (uint32, int) {
	if i < 0 || i >= w.n {
		panic(fmt.Sprintf("wavelet: AccessRank(%d) out of range [0,%d)", i, w.n))
	}
	var sym uint32
	for l, bv := range w.levels {
		sym <<= 1
		bit, r1 := bv.AccessRank1(i)
		if bit {
			sym |= 1
			i = w.zeros[l] + r1
		} else {
			i -= r1
		}
	}
	// i is now start(sym) + rank; subtract the bucket start.
	s := 0
	for l, bv := range w.levels {
		shift := uint(len(w.levels) - 1 - l)
		if sym>>shift&1 == 1 {
			s = w.zeros[l] + bv.Rank1(s)
		} else {
			s = bv.Rank0(s)
		}
	}
	return sym, i - s
}

// Rank returns the number of occurrences of c in [0, i).
func (w *WM) Rank(c uint32, i int) int {
	if i < 0 || i > w.n {
		panic(fmt.Sprintf("wavelet: Rank(%d) out of range [0,%d]", i, w.n))
	}
	if int(c) >= w.sigma {
		return 0
	}
	s, e := 0, i
	for l, bv := range w.levels {
		shift := uint(len(w.levels) - 1 - l)
		if c>>shift&1 == 1 {
			s = w.zeros[l] + bv.Rank1(s)
			e = w.zeros[l] + bv.Rank1(e)
		} else {
			s = bv.Rank0(s)
			e = bv.Rank0(e)
		}
	}
	return e - s
}

// SizeBits returns the footprint: level bit vectors plus the zeros
// table.
func (w *WM) SizeBits() int {
	total := 64 * len(w.zeros)
	for _, bv := range w.levels {
		total += bv.SizeBits()
	}
	return total
}
