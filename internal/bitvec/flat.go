package bitvec

import (
	"fmt"
	"math/bits"

	"cinct/internal/flat"
)

// Flat (v3) forms. AppendFlat writes a structure into a word stream;
// the View constructors wrap the stream's sub-slices in place — no
// copies, no decode — validating every shape invariant the query
// methods index by, so a corrupt stream fails the view instead of
// faulting a later Rank or Get. Content-level corruption (say, a rank
// directory that disagrees with the words) yields wrong answers, not
// out-of-bounds access: every index computed at query time is bounded
// by the shapes checked here.

// Tags for the kind-dispatched Vector stream.
const (
	flatPlain = 0
	flatRRR   = 1
)

// AppendFlat writes the vector's words and rank directory.
func (p *Plain) AppendFlat(w *flat.Writer) {
	w.U64(uint64(p.n))
	w.U64(uint64(p.ones))
	w.U64s(p.words)
	w.U32s(p.blocks)
}

// ViewPlain wraps a flat Plain in place.
func ViewPlain(c *flat.Cursor) (*Plain, error) {
	n := c.Int()
	ones := c.Int()
	words := c.U64s()
	blocks := c.U32s()
	if err := c.Err(); err != nil {
		return nil, err
	}
	need := (n + 63) / 64
	nb := (need + plainBlockWords - 1) / plainBlockWords
	if ones > n || len(words) != need || len(blocks) != nb+1 {
		return nil, fmt.Errorf("%w: plain bitvec shape (n=%d ones=%d words=%d blocks=%d)",
			flat.ErrCorrupt, n, ones, len(words), len(blocks))
	}
	return &Plain{words: words, n: n, blocks: blocks, ones: ones}, nil
}

// AppendFlat writes the packed array.
func (p *PackedInts) AppendFlat(w *flat.Writer) {
	w.U64(uint64(p.n))
	w.U64(uint64(p.width))
	w.U64s(p.words)
}

// ViewPackedInts wraps a flat PackedInts in place.
func ViewPackedInts(c *flat.Cursor) (*PackedInts, error) {
	n := c.Int()
	width := c.Int()
	words := c.U64s()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if width < 1 || width > 64 || n > (1<<56) ||
		len(words) != (n*width+63)/64 {
		return nil, fmt.Errorf("%w: packed ints shape (n=%d width=%d words=%d)",
			flat.ErrCorrupt, n, width, len(words))
	}
	return &PackedInts{words: words, width: uint(width), n: n}, nil
}

// FlatWords returns the length of the vector's AppendFlat output.
func (p *Plain) FlatWords() int { return plainFlatWords(p.n) - 1 }

// FlatWords returns the length of the array's AppendFlat output: n,
// width, and the length-prefixed words.
func (p *PackedInts) FlatWords() int { return 3 + len(p.words) }

// canonicalWords returns the packed field array at its canonical flat
// length: ceil(lenBits/64) data words plus one guard word, the
// invariant the unguarded word-pair reads in RRR's class scan rely
// on. The builder's append-grown slice may be shorter or longer.
func (p *packed) canonicalWords() []uint64 {
	need := (p.lenBits+63)/64 + 1
	if len(p.words) == need {
		return p.words
	}
	out := make([]uint64, need)
	copy(out, p.words)
	return out
}

// AppendFlat writes the RRR vector: classes, offsets and the sampled
// directory.
func (r *RRR) AppendFlat(w *flat.Writer) {
	w.U64(uint64(r.n))
	w.U64(uint64(r.blockSize))
	w.U64(uint64(r.ones))
	w.U64(uint64(r.classes.lenBits))
	w.U64s(r.classes.canonicalWords())
	w.U64(uint64(r.offsets.lenBits))
	w.U64s(r.offsets.canonicalWords())
	w.U32s(r.sampleRank)
	w.U64s(r.sampleOff)
}

// ViewRRR wraps a flat RRR in place. Validation is O(1) — shape
// arithmetic plus the directory's endpoints — so opening a mapped
// container never walks the superblock directory. Interior directory
// corruption therefore survives the view: a lying sample either reads
// inside the guarded offset stream (wrong answer) or trips the
// per-read guard in packed.read (a panic the query layer contains as
// cinct.ErrCorrupt).
func ViewRRR(c *flat.Cursor) (*RRR, error) {
	n := c.Int()
	blockSize := c.Int()
	ones := c.Int()
	classLen := c.Int()
	classWords := c.U64s()
	offLen := c.Int()
	offWords := c.U64s()
	sampleRank := c.U32s()
	sampleOff := c.U64s()
	if err := c.Err(); err != nil {
		return nil, err
	}
	switch blockSize {
	case 15, 31, 63:
	default:
		return nil, fmt.Errorf("%w: RRR block size %d", flat.ErrCorrupt, blockSize)
	}
	classBits := uint(bits.Len(uint(blockSize)))
	nBlocks := (n + blockSize - 1) / blockSize
	nSuper := (nBlocks + superblockFactor - 1) / superblockFactor
	if ones > n || classLen != nBlocks*int(classBits) ||
		len(classWords) != (classLen+63)/64+1 ||
		len(offWords) != (offLen+63)/64+1 ||
		len(sampleRank) != nSuper+1 || len(sampleOff) != nSuper+1 {
		return nil, fmt.Errorf("%w: RRR shape (n=%d blocks=%d)", flat.ErrCorrupt, n, nBlocks)
	}
	if sampleRank[0] != 0 || sampleOff[0] != 0 ||
		sampleOff[nSuper] > uint64(offLen) || int(sampleRank[nSuper]) != ones {
		return nil, fmt.Errorf("%w: RRR sample directory endpoints (rank %d..%d off %d..%d)",
			flat.ErrCorrupt, sampleRank[0], sampleRank[nSuper], sampleOff[0], sampleOff[nSuper])
	}
	return &RRR{
		n:          n,
		blockSize:  blockSize,
		classBits:  classBits,
		ones:       ones,
		widths:     offsetWidths[blockSize],
		classes:    packed{words: classWords, lenBits: classLen},
		offsets:    packed{words: offWords, lenBits: offLen},
		sampleRank: sampleRank,
		sampleOff:  sampleOff,
	}, nil
}

// plainFlatWords is the length of AppendVector's output for a Plain of
// n bits: kind tag, n, ones, the length-prefixed words and the
// length-prefixed uint32 rank directory. Plain.FlatWords is the same
// without the tag.
func plainFlatWords(n int) int {
	need := (n + 63) / 64
	nb := (need + plainBlockWords - 1) / plainBlockWords
	return 3 + 1 + need + 1 + (nb+2)/2
}

// rrrFlatWords is the length of AppendVector's output for an RRR of n
// bits whose offsets total offLen bits: kind tag, n, block size, ones,
// the two length-prefixed packed arrays with their bit lengths and
// guard words, and the sampled directory.
func rrrFlatWords(n, blockSize, offLen int) int {
	nBlocks := (n + blockSize - 1) / blockSize
	nSuper := (nBlocks + superblockFactor - 1) / superblockFactor
	classLen := nBlocks * bits.Len(uint(blockSize))
	return 4 +
		2 + (classLen+63)/64 + 1 +
		2 + (offLen+63)/64 + 1 +
		1 + (nSuper+2)/2 +
		1 + nSuper + 1
}

// AppendVector writes any supported Vector behind a kind tag.
func AppendVector(w *flat.Writer, v Vector) {
	switch bv := v.(type) {
	case *Plain:
		w.U64(flatPlain)
		bv.AppendFlat(w)
	case *RRR:
		w.U64(flatRRR)
		bv.AppendFlat(w)
	default:
		panic(fmt.Sprintf("bitvec: no flat form for %T", v))
	}
}

// ViewVector wraps a kind-tagged Vector in place.
func ViewVector(c *flat.Cursor) (Vector, error) {
	switch kind := c.U64(); kind {
	case flatPlain:
		return ViewPlain(c)
	case flatRRR:
		return ViewRRR(c)
	default:
		if err := c.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: unknown bit-vector kind %d", flat.ErrCorrupt, kind)
	}
}
