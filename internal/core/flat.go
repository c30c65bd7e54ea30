package core

import (
	"fmt"
	"math/bits"

	"cinct/internal/bitvec"
	"cinct/internal/etgraph"
	"cinct/internal/flat"
	"cinct/internal/wavelet"
)

// Flat (v3) form of the whole index. Where the v1 stream stores the
// labeled BWT Huffman-coded and rebuilds the wavelet tree and locate
// structures in O(n) at load, the flat form stores every resident
// structure directly, so ViewFlat is O(σ + |E| + nodes): opening is
// proportional to the directories, never the text. The price is that
// the O(n) semantic checks v1 performs (every label decodable in its
// context, LF a single n-cycle) are skipped — deep content corruption
// surfaces as a contained panic in the search layer, which converts it
// to a typed error, instead of at open.
//
// The locate section, present when the sample rate is > 0, is the mark
// bit vector and then the SA and ISA samples as packed ints: SA/rate at
// ⌈lg(n/rate)⌉ bits, rows at ⌈lg n⌉ (container version 4; version 3's
// int32 samples are converted, not viewed).

// AppendFlat writes the index into a word stream. The graph is
// compacted first (idempotent) — the flat form only has a CSR layout.
func (ix *Index) AppendFlat(w *flat.Writer) {
	ix.graph.Compact()
	w.U64(uint64(ix.n))
	w.U64(uint64(ix.sigma))
	w.U64(uint64(ix.maxLabel))
	w.U64(uint64(ix.opt.Spec.Kind))
	w.U64(uint64(ix.opt.Spec.Block))
	w.U64(uint64(ix.opt.Strategy))
	w.I64(ix.opt.Seed)
	w.U64(uint64(ix.opt.SASample))
	w.U64(uint64(ix.sampleRate))
	w.F64(ix.h0Labeled)
	ix.c.AppendFlat(w)
	ix.graph.AppendFlat(w)
	ix.labeled.AppendFlat(w)
	if ix.sampleRate > 0 {
		ix.mark.AppendFlat(w)
		ix.samples.AppendFlat(w)
		ix.isaSamples.AppendFlat(w)
	}
}

// ViewFlat wraps a flat index in place.
func ViewFlat(c *flat.Cursor) (*Index, error) {
	n := c.Int()
	sigma := c.Int()
	maxLabel := c.Int()
	specKind := c.U64()
	specBlock := c.Int()
	strategy := c.U64()
	seed := c.I64()
	saSample := c.Int()
	sampleRate := c.Int()
	h0 := c.F64()
	if err := c.Err(); err != nil {
		return nil, err
	}
	if sigma < 2 || maxLabel > sigma {
		return nil, fmt.Errorf("%w: implausible header (n=%d sigma=%d maxLabel=%d)",
			flat.ErrCorrupt, n, sigma, maxLabel)
	}
	spec := wavelet.BitvecSpec{Kind: wavelet.BitvecKind(specKind), Block: specBlock}
	switch {
	case spec.Kind == wavelet.PlainBits:
	case spec.Kind == wavelet.RRRBits && (spec.Block == 15 || spec.Block == 31 || spec.Block == 63):
	default:
		return nil, fmt.Errorf("%w: unknown bit-vector spec (kind=%d block=%d)",
			flat.ErrCorrupt, specKind, specBlock)
	}
	ix := &Index{
		n: n, sigma: sigma, maxLabel: maxLabel,
		opt: Options{Spec: spec, Strategy: etgraph.Strategy(strategy),
			Seed: seed, SASample: saSample},
		sampleRate: sampleRate,
		h0Labeled:  h0,
	}
	var err error
	if ix.c, err = bitvec.ViewPackedInts(c); err != nil {
		return nil, err
	}
	if ix.c.Len() != sigma+1 {
		return nil, fmt.Errorf("%w: C array has %d entries for alphabet %d",
			flat.ErrCorrupt, ix.c.Len(), sigma)
	}
	prev := uint64(0)
	for w := 0; w <= sigma; w++ {
		v := ix.c.Get(w)
		if v < prev || v > uint64(n) {
			return nil, fmt.Errorf("%w: C array not monotone at %d", flat.ErrCorrupt, w)
		}
		prev = v
	}
	if ix.c.Get(0) != 0 || ix.c.Get(sigma) != uint64(n) {
		return nil, fmt.Errorf("%w: C array spans [%d,%d], want [0,%d]",
			flat.ErrCorrupt, ix.c.Get(0), ix.c.Get(sigma), n)
	}
	if ix.graph, err = etgraph.ViewFlat(c); err != nil {
		return nil, err
	}
	if ix.graph.Sigma() != sigma || ix.graph.MaxOutDegree() != maxLabel {
		return nil, fmt.Errorf("%w: ET-graph (sigma=%d maxDeg=%d) disagrees with header (%d, %d)",
			flat.ErrCorrupt, ix.graph.Sigma(), ix.graph.MaxOutDegree(), sigma, maxLabel)
	}
	if ix.labeled, err = wavelet.ViewHWT(c); err != nil {
		return nil, err
	}
	if ix.labeled.Len() != n || ix.labeled.Sigma() != maxLabel+1 {
		return nil, fmt.Errorf("%w: labeled BWT shape (len=%d sigma=%d), want (%d, %d)",
			flat.ErrCorrupt, ix.labeled.Len(), ix.labeled.Sigma(), n, maxLabel+1)
	}
	if sampleRate > 0 {
		if err := ix.viewSamples(c); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// viewSamples wraps the locate section and checks its shape: one SA
// sample per marked row, one ISA sample per rate positions, and widths
// no wider than n/rate and n need, so SA/rate × rate stays below 2n.
// Sample values are deliberately not swept — that would make opening a
// mapped container O(n). A corrupt value past n panics in Locate or
// RowOf, any other is a wrong answer, and Locate's LF walk is
// step-capped; the search layer contains all of it as a typed error.
func (ix *Index) viewSamples(c *flat.Cursor) error {
	var err error
	if ix.mark, err = bitvec.ViewPlain(c); err != nil {
		return err
	}
	if ix.samples, err = bitvec.ViewPackedInts(c); err != nil {
		return err
	}
	if ix.isaSamples, err = bitvec.ViewPackedInts(c); err != nil {
		return err
	}
	saWidth, isaWidth := bits.Len(uint(ix.n/ix.sampleRate)), bits.Len(uint(ix.n))
	if ix.mark.Len() != ix.n || ix.samples.Len() != ix.mark.Ones() ||
		ix.isaSamples.Len() != (ix.n+ix.sampleRate-1)/ix.sampleRate ||
		int(ix.samples.Width()) > max(saWidth, 1) || int(ix.isaSamples.Width()) > max(isaWidth, 1) {
		return fmt.Errorf("%w: locate structures (mark=%d samples=%d×%d isa=%d×%d, n=%d rate=%d)",
			flat.ErrCorrupt, ix.mark.Len(), ix.samples.Len(), ix.samples.Width(),
			ix.isaSamples.Len(), ix.isaSamples.Width(), ix.n, ix.sampleRate)
	}
	return nil
}
