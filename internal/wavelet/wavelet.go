// Package wavelet implements the two sequence representations used in
// the paper's evaluation: the Huffman-shaped wavelet tree (HWT) — the
// structure CiNCT and ICB-Huff store the (labeled) BWT in — and the
// wavelet matrix (WM) used by the UFMI and ICB-WM baselines. Both are
// parameterized by the underlying bit vector (plain or RRR), which is
// exactly the axis the paper's Table II varies.
package wavelet

import "cinct/internal/bitvec"

// Sequence is a rank-indexed integer sequence: the operations FM-index
// backward search needs from its BWT representation.
type Sequence interface {
	// Len returns the sequence length.
	Len() int
	// Sigma returns an exclusive upper bound on symbol values.
	Sigma() int
	// Access returns the i-th symbol.
	Access(i int) uint32
	// Rank returns the number of occurrences of c in the prefix [0, i).
	Rank(c uint32, i int) int
	// AccessRank returns (Access(i), Rank(Access(i), i)) — the combined
	// operation one LF-mapping step needs — cheaper than the two calls.
	AccessRank(i int) (uint32, int)
	// SizeBits returns the storage footprint in bits.
	SizeBits() int
}

// BitvecKind selects the bit-vector representation inside a wavelet
// structure.
type BitvecKind int

const (
	// PlainBits stores uncompressed bit vectors (UFMI).
	PlainBits BitvecKind = iota
	// RRRBits stores RRR-compressed bit vectors (CiNCT, ICB-Huff, ICB-WM).
	RRRBits
)

// BitvecSpec configures the bit vectors of a wavelet structure. Block
// is the RRR block size b (15, 31 or 63) and is ignored for PlainBits.
// A WM stores every level in the spec's kind; an HWT under RRRBits
// keeps RRR only at the nodes where it pays (see nodeVector) and
// stores the rest plain.
type BitvecSpec struct {
	Kind  BitvecKind
	Block int
}

// PlainSpec is the uncompressed configuration.
var PlainSpec = BitvecSpec{Kind: PlainBits}

// RRRSpec returns an RRR configuration with block size b.
func RRRSpec(b int) BitvecSpec { return BitvecSpec{Kind: RRRBits, Block: b} }

func (s BitvecSpec) build(b *bitvec.Builder) bitvec.Vector {
	if s.Kind == PlainBits {
		return b.Plain()
	}
	return b.RRR(s.Block)
}
