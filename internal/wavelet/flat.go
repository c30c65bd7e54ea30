package wavelet

import (
	"fmt"
	"math/bits"

	"cinct/internal/bitvec"
	"cinct/internal/flat"
	"cinct/internal/huffman"
)

// Flat (v3) forms. The codebook travels as its canonical code lengths
// (FromLengths rebuilds identical codes), nodes as (left, right,
// vector) triples in build order. Views validate the structural
// invariants descent relies on: children index strictly forward (so
// every walk terminates), leaves name in-alphabet symbols, and each
// child vector is exactly as long as the parent's matching bit count
// (so a descent step cannot leave the child's index range while the
// rank directories are consistent).

// AppendFlat writes the tree into a word stream.
func (h *HWT) AppendFlat(w *flat.Writer) {
	w.U64(uint64(h.n))
	w.U64(uint64(h.sigma))
	w.I64(int64(h.root))
	w.U64(uint64(h.soleSymbol))
	w.U8s(h.cb.Lengths())
	w.U64(uint64(len(h.nodes)))
	for i := range h.nodes {
		w.I64(int64(h.nodes[i].left))
		w.I64(int64(h.nodes[i].right))
		bitvec.AppendVector(w, h.nodes[i].bv)
	}
}

// ViewHWT wraps a flat HWT in place.
func ViewHWT(c *flat.Cursor) (*HWT, error) {
	n := c.Int()
	sigma := c.Int()
	root := c.I64()
	soleSymbol := c.U64()
	lengths := c.U8s()
	nNodes := c.Int()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if len(lengths) != sigma {
		return nil, fmt.Errorf("%w: HWT codebook has %d lengths for alphabet %d",
			flat.ErrCorrupt, len(lengths), sigma)
	}
	for s, l := range lengths {
		if l > 63 {
			return nil, fmt.Errorf("%w: HWT code length %d for symbol %d", flat.ErrCorrupt, l, s)
		}
	}
	// Each node occupies at least three words, which bounds a lying
	// count before it sizes an allocation.
	if nNodes < 0 || nNodes > c.Remaining()/3 {
		return nil, fmt.Errorf("%w: HWT claims %d nodes in %d words",
			flat.ErrCorrupt, nNodes, c.Remaining())
	}
	h := &HWT{n: n, sigma: sigma, cb: huffman.FromLengths(lengths),
		root: int(root), soleSymbol: uint32(soleSymbol)}
	if nNodes > 0 {
		h.nodes = make([]hwtNode, nNodes)
	}
	for i := 0; i < nNodes; i++ {
		left := c.I64()
		right := c.I64()
		bv, err := bitvec.ViewVector(c)
		if err != nil {
			return nil, err
		}
		h.nodes[i] = hwtNode{bv: bv, left: int32(left), right: int32(right)}
		for _, child := range []int64{left, right} {
			if child < 0 {
				if int64(^int32(child)) != ^child || int(^child) >= sigma {
					return nil, fmt.Errorf("%w: HWT node %d leaf symbol out of range",
						flat.ErrCorrupt, i)
				}
			} else if child <= int64(i) || child >= int64(nNodes) {
				return nil, fmt.Errorf("%w: HWT node %d child %d not strictly forward",
					flat.ErrCorrupt, i, child)
			}
		}
	}
	// Children were only range-checked above; with all vectors in hand,
	// check the partition sizes parent-to-child descent relies on.
	for i := 0; i < nNodes; i++ {
		nd := &h.nodes[i]
		total := nd.bv.Len()
		zeros := total - nd.bv.Ones()
		for _, ch := range [2]struct {
			idx  int32
			want int
		}{{nd.left, zeros}, {nd.right, total - zeros}} {
			if ch.idx >= 0 && h.nodes[ch.idx].bv.Len() != ch.want {
				return nil, fmt.Errorf("%w: HWT node %d child partition mismatch",
					flat.ErrCorrupt, i)
			}
		}
	}
	switch {
	case int(root) == -1:
		if nNodes != 0 || (n > 0 && int(soleSymbol) >= sigma) {
			return nil, fmt.Errorf("%w: HWT leafless shape (n=%d nodes=%d)",
				flat.ErrCorrupt, n, nNodes)
		}
	case int(root) == 0 && nNodes > 0:
		if h.nodes[0].bv.Len() != n {
			return nil, fmt.Errorf("%w: HWT root vector length %d != n %d",
				flat.ErrCorrupt, h.nodes[0].bv.Len(), n)
		}
	default:
		return nil, fmt.Errorf("%w: HWT root %d with %d nodes", flat.ErrCorrupt, root, nNodes)
	}
	return h, nil
}

// AppendFlat writes the matrix: n, σ, the level count, then each
// level's zero count and bit vector.
func (w *WM) AppendFlat(fw *flat.Writer) {
	fw.U64(uint64(w.n))
	fw.U64(uint64(w.sigma))
	fw.U64(uint64(len(w.levels)))
	for l, bv := range w.levels {
		fw.U64(uint64(w.zeros[l]))
		bitvec.AppendVector(fw, bv)
	}
}

// ViewWM wraps a flat WM in place. It checks the level count against
// σ, every level's length against n and its zero count against the
// level's ones — the bounds a descent's index arithmetic relies on —
// in O(levels), never sweeping the bits.
func ViewWM(c *flat.Cursor) (*WM, error) {
	n := c.Int()
	sigma := c.Int()
	nLevels := c.Int()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if sigma < 1 || nLevels != max(bits.Len(uint(sigma-1)), 1) {
		return nil, fmt.Errorf("%w: WM shape (n=%d sigma=%d levels=%d)", flat.ErrCorrupt, n, sigma, nLevels)
	}
	w := &WM{n: n, sigma: sigma, levels: make([]bitvec.Vector, nLevels), zeros: make([]int, nLevels)}
	for l := range w.levels {
		zeros := c.Int()
		bv, err := bitvec.ViewVector(c)
		if err != nil {
			return nil, err
		}
		if bv.Len() != n || zeros != n-bv.Ones() {
			return nil, fmt.Errorf("%w: WM level %d has %d bits and %d zeros (claims %d), want %d bits",
				flat.ErrCorrupt, l, bv.Len(), bv.Len()-bv.Ones(), zeros, n)
		}
		w.levels[l], w.zeros[l] = bv, zeros
	}
	return w, nil
}
