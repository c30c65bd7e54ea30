package wavelet

import (
	"fmt"

	"cinct/internal/bitvec"
	"cinct/internal/huffman"
)

// HWT is a Huffman-shaped wavelet tree: the tree has the shape of the
// Huffman tree of the sequence, so a symbol of frequency f sits at depth
// ~lg(n/f) and rank/access touch that many bit vectors. Total bit-vector
// length is n(1+H0(S)) — the property Theorem 1 and the paper's size and
// speed analysis (§V) rest on.
type HWT struct {
	n     int
	sigma int
	cb    *huffman.Codebook
	nodes []hwtNode
	// root is the index of the root node, or -1 when the effective
	// alphabet has a single symbol (no bits stored at all).
	root       int
	soleSymbol uint32
}

type hwtNode struct {
	bv bitvec.Vector
	// Children: values >= 0 index into nodes; values < 0 encode a leaf
	// symbol as ^symbol.
	left, right int32
}

const hwtLeaf = int32(-1) // placeholder during construction

// NewHWT builds a Huffman-shaped wavelet tree over seq, whose symbols
// must lie in [0, sigma). Bit vectors are built per spec.
func NewHWT(seq []uint32, sigma int, spec BitvecSpec) *HWT {
	freqs := make([]uint64, sigma)
	for _, s := range seq {
		if int(s) >= sigma {
			panic(fmt.Sprintf("wavelet: symbol %d out of alphabet [0,%d)", s, sigma))
		}
		freqs[s]++
	}
	return NewHWTFreqs(seq, freqs, spec)
}

// NewHWTFreqs is NewHWT with precomputed frequencies (freqs[s] must
// equal the occurrence count of s in seq).
func NewHWTFreqs(seq []uint32, freqs []uint64, spec BitvecSpec) *HWT {
	sigma := len(freqs)
	cb := huffman.Build(freqs)
	h := &HWT{n: len(seq), sigma: sigma, cb: cb, root: -1}

	used := 0
	var sole uint32
	for s, f := range freqs {
		if f > 0 {
			used++
			sole = uint32(s)
		}
	}
	if used <= 1 {
		h.soleSymbol = sole
		return h
	}

	// Recursive stable partition guided by the codewords. Scratch
	// buffers are reused across sibling recursions by splitting slices.
	h.root = h.buildNode(seq, 0, spec)
	return h
}

// buildNode creates the node for the code prefix at the given depth and
// returns its index in h.nodes. seq holds exactly the elements whose
// codewords share the current prefix.
func (h *HWT) buildNode(seq []uint32, depth int, spec BitvecSpec) int {
	bld := bitvec.NewBuilder(len(seq))
	nLeft := 0
	for _, s := range seq {
		c := h.cb.Codes[s]
		bit := c.Bits >> (uint(c.Len) - 1 - uint(depth)) & 1
		bld.PushBit(bit == 1)
		if bit == 0 {
			nLeft++
		}
	}
	left := make([]uint32, 0, nLeft)
	right := make([]uint32, 0, len(seq)-nLeft)
	for _, s := range seq {
		c := h.cb.Codes[s]
		if c.Bits>>(uint(c.Len)-1-uint(depth))&1 == 0 {
			left = append(left, s)
		} else {
			right = append(right, s)
		}
	}

	idx := len(h.nodes)
	h.nodes = append(h.nodes, hwtNode{bv: nodeVector(bld, spec), left: hwtLeaf, right: hwtLeaf})

	h.nodes[idx].left = h.childFor(left, depth+1, spec)
	h.nodes[idx].right = h.childFor(right, depth+1, spec)
	return idx
}

// nodeVector builds one node's bit vector. Under an RRR spec a node
// keeps RRR only when that form is at least 1/8 smaller than the plain
// one, both priced by the words they occupy in the flat stream, so tiny
// nodes pay for their headers. RML makes the top splits nearly
// balanced: there RRR saves under a tenth of the space and costs a
// block decode on every step of every walk. Deeper nodes where RRR
// does compress keep it.
func nodeVector(b *bitvec.Builder, spec BitvecSpec) bitvec.Vector {
	if spec.Kind == RRRBits {
		if plain, rrr := b.FlatWords(spec.Block); 8*rrr > 7*plain {
			return b.Plain()
		}
	}
	return spec.build(b)
}

// childFor returns either a leaf encoding or a recursively built child
// node index for the elements in part.
func (h *HWT) childFor(part []uint32, depth int, spec BitvecSpec) int32 {
	if len(part) == 0 {
		// Unreachable for a proper Huffman tree, but keep a sane value.
		return hwtLeaf
	}
	s := part[0]
	if int(h.cb.Codes[s].Len) == depth {
		return ^int32(s)
	}
	return int32(h.buildNode(part, depth, spec))
}

// Len returns the sequence length.
func (h *HWT) Len() int { return h.n }

// Sigma returns the alphabet bound.
func (h *HWT) Sigma() int { return h.sigma }

// Codebook exposes the underlying Huffman codebook (used by the size
// analysis and tests).
func (h *HWT) Codebook() *huffman.Codebook { return h.cb }

// Access returns the i-th symbol.
func (h *HWT) Access(i int) uint32 {
	if i < 0 || i >= h.n {
		panic(fmt.Sprintf("wavelet: Access(%d) out of range [0,%d)", i, h.n))
	}
	if h.root < 0 {
		return h.soleSymbol
	}
	node := int32(h.root)
	for {
		nd := &h.nodes[node]
		bit, r1 := nd.bv.AccessRank1(i)
		if bit {
			i = r1
			node = nd.right
		} else {
			i -= r1
			node = nd.left
		}
		if node < 0 {
			return uint32(^node)
		}
	}
}

// AccessRank returns the i-th symbol and its rank up to i in a single
// root-to-leaf walk: the AccessRank1 descent maintains exactly the
// in-node position that Rank would recompute.
func (h *HWT) AccessRank(i int) (uint32, int) {
	if i < 0 || i >= h.n {
		panic(fmt.Sprintf("wavelet: AccessRank(%d) out of range [0,%d)", i, h.n))
	}
	if h.root < 0 {
		return h.soleSymbol, i
	}
	node := int32(h.root)
	for {
		nd := &h.nodes[node]
		bit, r1 := nd.bv.AccessRank1(i)
		if bit {
			i = r1
			node = nd.right
		} else {
			i -= r1
			node = nd.left
		}
		if node < 0 {
			return uint32(^node), i
		}
	}
}

// Rank returns the number of occurrences of c in [0, i). Symbols not in
// the effective alphabet have rank 0 everywhere.
func (h *HWT) Rank(c uint32, i int) int {
	if i < 0 || i > h.n {
		panic(fmt.Sprintf("wavelet: Rank(%d) out of range [0,%d]", i, h.n))
	}
	if int(c) >= h.sigma {
		return 0
	}
	if h.root < 0 {
		if c == h.soleSymbol && h.n > 0 {
			return i
		}
		return 0
	}
	code := h.cb.Codes[c]
	if code.Len == 0 {
		return 0
	}
	node := int32(h.root)
	for d := 0; d < int(code.Len); d++ {
		nd := &h.nodes[node]
		if code.Bits>>(uint(code.Len)-1-uint(d))&1 == 1 {
			i = nd.bv.Rank1(i)
			node = nd.right
		} else {
			i = nd.bv.Rank0(i)
			node = nd.left
		}
		if node < 0 {
			return i
		}
	}
	return i
}

// SizeBits returns the total footprint: node bit vectors, tree pointers
// (2x32 bits per node) and the code-length table (8 bits per symbol),
// mirroring the paper's accounting of wavelet-tree overheads (P2).
func (h *HWT) SizeBits() int {
	total := 0
	for i := range h.nodes {
		total += h.nodes[i].bv.SizeBits() + 64
	}
	total += 8 * h.sigma
	return total
}

// Depth returns the codeword length of symbol c (0 if absent): the
// number of bit-vector rank operations Rank(c, ·) performs.
func (h *HWT) Depth(c uint32) int {
	if int(c) >= h.sigma {
		return 0
	}
	return int(h.cb.Codes[c].Len)
}
