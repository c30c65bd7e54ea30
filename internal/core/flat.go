package core

import (
	"fmt"
	"math/bits"

	"cinct/internal/bitvec"
	"cinct/internal/etgraph"
	"cinct/internal/flat"
	"cinct/internal/wavelet"
)

// Flat form of the index: one section per structure, each a word
// stream a container gives its own TOC entry. Where the v1 stream
// stored the labeled BWT Huffman-coded and rebuilt the wavelet tree
// and locate structures in O(n) at load, the sections store every
// resident structure directly, so ViewSections is O(σ + |E| + nodes):
// opening is proportional to the directories, never the text. The
// price is that the O(n) semantic checks v1 performed (every label
// decodable in its context, LF a single n-cycle) are skipped — deep
// content corruption surfaces as a contained panic in the search
// layer, which converts it to a typed error, instead of at open.
//
// The labeled wavelet tree's section holds the tree, then the wavelet
// matrix of the escaped $ block's symbols.
//
// The locate sections, present exactly when the sample rate is > 0,
// are the mark bit vector and the SA and ISA samples as packed ints:
// SA/rate at ⌈lg(n/rate)⌉ bits, rows at ⌈lg n⌉.

// Section names one structure of the flat form.
type Section int

const (
	Params     Section = iota // n, σ, max label, build options, sample rate, H0(φ(Tbwt))
	CArray                    // C
	ETGraph                   // the CSR ET-graph
	LabeledWT                 // the wavelet tree of φ(Tbwt), then the $-row matrix
	Mark                      // rows whose SA value is sampled (locate only)
	SASamples                 // SA/rate at the marked rows (locate only)
	ISASamples                // rows of every rate-th text position (locate only)
	NumSections
)

var sectionNames = [NumSections]string{
	"core parameters", "C array", "ET-graph", "labeled wavelet tree",
	"row marks", "SA samples", "ISA samples",
}

func (s Section) String() string { return sectionNames[s] }

// AppendSection writes section s of the index into w. The locate
// sections exist only with locate support (SampleRate > 0).
func (ix *Index) AppendSection(w *flat.Writer, s Section) {
	switch s {
	case Params:
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
	case CArray:
		ix.c.AppendFlat(w)
	case ETGraph:
		ix.graph.AppendFlat(w)
	case LabeledWT:
		ix.labeled.AppendFlat(w)
		ix.sepRows.AppendFlat(w)
	case Mark:
		ix.mark.AppendFlat(w)
	case SASamples:
		ix.samples.AppendFlat(w)
	case ISASamples:
		ix.isaSamples.AppendFlat(w)
	default:
		panic(fmt.Sprintf("core: no section %d", s))
	}
}

// ViewSections wraps an index over its flat sections in place: secs[s]
// reads section s, nil where there is none. The parameters say which
// sections must be present — the locate ones exactly when the sample
// rate is > 0 — and each present one must be read to its end.
func ViewSections(secs [NumSections]*flat.Cursor) (*Index, error) {
	for s := Params; s < Mark; s++ {
		if secs[s] == nil {
			return nil, fmt.Errorf("%w: no %s section", flat.ErrCorrupt, s)
		}
	}
	ix, err := viewParams(secs[Params])
	if err != nil {
		return nil, err
	}
	loc := ix.sampleRate > 0
	if loc != (secs[Mark] != nil) || loc != (secs[SASamples] != nil) || loc != (secs[ISASamples] != nil) {
		return nil, fmt.Errorf("%w: sample rate %d with locate sections (%v, %v, %v)", flat.ErrCorrupt,
			ix.sampleRate, secs[Mark] != nil, secs[SASamples] != nil, secs[ISASamples] != nil)
	}
	if ix.c, err = bitvec.ViewPackedInts(secs[CArray]); err != nil {
		return nil, err
	}
	if ix.c.Len() != ix.sigma+1 {
		return nil, fmt.Errorf("%w: C array has %d entries for alphabet %d",
			flat.ErrCorrupt, ix.c.Len(), ix.sigma)
	}
	prev := uint64(0)
	for w := 0; w <= ix.sigma; w++ {
		v := ix.c.Get(w)
		if v < prev || v > uint64(ix.n) {
			return nil, fmt.Errorf("%w: C array not monotone at %d", flat.ErrCorrupt, w)
		}
		prev = v
	}
	if ix.c.Get(0) != 0 || ix.c.Get(ix.sigma) != uint64(ix.n) {
		return nil, fmt.Errorf("%w: C array spans [%d,%d], want [0,%d]",
			flat.ErrCorrupt, ix.c.Get(0), ix.c.Get(ix.sigma), ix.n)
	}
	if ix.graph, err = etgraph.ViewFlat(secs[ETGraph]); err != nil {
		return nil, err
	}
	if ix.graph.Sigma() != ix.sigma || ix.graph.MaxOutDegree() != ix.maxLabel {
		return nil, fmt.Errorf("%w: ET-graph (sigma=%d maxDeg=%d) disagrees with header (%d, %d)",
			flat.ErrCorrupt, ix.graph.Sigma(), ix.graph.MaxOutDegree(), ix.sigma, ix.maxLabel)
	}
	if ix.labeled, err = wavelet.ViewHWT(secs[LabeledWT]); err != nil {
		return nil, err
	}
	if ix.labeled.Len() != ix.n || ix.labeled.Sigma() != ix.maxLabel+1 {
		return nil, fmt.Errorf("%w: labeled BWT shape (len=%d sigma=%d), want (%d, %d)",
			flat.ErrCorrupt, ix.labeled.Len(), ix.labeled.Sigma(), ix.n, ix.maxLabel+1)
	}
	if err := ix.viewEscape(secs[LabeledWT]); err != nil {
		return nil, err
	}
	if loc {
		if err := ix.viewSamples(secs[Mark], secs[SASamples], secs[ISASamples]); err != nil {
			return nil, err
		}
	}
	for s, c := range secs {
		if c != nil && c.Remaining() != 0 {
			return nil, fmt.Errorf("%w: %s section has %d trailing words",
				flat.ErrCorrupt, Section(s), c.Remaining())
		}
	}
	return ix, nil
}

// viewEscape wraps the $-row matrix and checks what LF and backward
// search from a $ row rely on: one # row before the block (C[$] = 1),
// whose symbol is the # context's one out-edge; a separator context
// without out-edges; and a matrix over σ with one entry per $ row.
func (ix *Index) viewEscape(c *flat.Cursor) error {
	var err error
	if ix.sepRows, err = wavelet.ViewWM(c); err != nil {
		return err
	}
	rows := ix.cAt(int(sep)+1) - ix.cAt(int(sep))
	if ix.cAt(int(sep)) != 1 || ix.graph.OutDegree(0) != 1 || ix.graph.OutDegree(sep) != 0 ||
		ix.sepRows.Len() != int(rows) || ix.sepRows.Sigma() != ix.sigma {
		return fmt.Errorf("%w: escaped $ block (C[$]=%d, # out-degree %d, $ out-degree %d, matrix %d×σ%d for %d rows, σ=%d)",
			flat.ErrCorrupt, ix.cAt(int(sep)), ix.graph.OutDegree(0), ix.graph.OutDegree(sep),
			ix.sepRows.Len(), ix.sepRows.Sigma(), rows, ix.sigma)
	}
	ix.bwt0 = ix.graph.Decode(1, 0)
	return nil
}

// viewParams reads the parameters section.
func viewParams(c *flat.Cursor) (*Index, error) {
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
	return &Index{
		n: n, sigma: sigma, maxLabel: maxLabel,
		opt: Options{Spec: spec, Strategy: etgraph.Strategy(strategy),
			Seed: seed, SASample: saSample},
		sampleRate: sampleRate,
		h0Labeled:  h0,
	}, nil
}

// viewSamples wraps the locate sections and checks its shape: one SA
// sample per marked row, one ISA sample per rate positions, and widths
// no wider than n/rate and n need, so SA/rate × rate stays below 2n.
// Sample values are deliberately not swept — that would make opening a
// mapped container O(n). A corrupt value past n panics in Locate or
// RowOf, any other is a wrong answer, and Locate's LF walk is
// step-capped; the search layer contains all of it as a typed error.
func (ix *Index) viewSamples(mark, sa, isa *flat.Cursor) error {
	var err error
	if ix.mark, err = bitvec.ViewPlain(mark); err != nil {
		return err
	}
	if ix.samples, err = bitvec.ViewPackedInts(sa); err != nil {
		return err
	}
	if ix.isaSamples, err = bitvec.ViewPackedInts(isa); err != nil {
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
