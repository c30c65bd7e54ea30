package trajstr

import (
	"fmt"

	"cinct/internal/flat"
)

// Flat form of the corpus metadata, in two sections: the symbol map
// (alphabet size and edge IDs) and the trajectory tables (document
// starts and lengths), without the text (the index is a self-index;
// the text is dropped once the succinct structures exist). Both are
// wrapped in place: the edge IDs are sorted, so EncodePath
// binary-searches them and nothing is rebuilt at view time.

// AppendSymbols writes the symbol map section.
func (c *Corpus) AppendSymbols(w *flat.Writer) {
	w.U64(uint64(c.Sigma))
	w.U32s(c.symToEdge)
}

// AppendTables writes the trajectory tables section.
func (c *Corpus) AppendTables(w *flat.Writer) {
	w.I32s(c.docStarts)
	w.I32s(c.docLens)
}

// ViewFlat wraps the symbol map and trajectory tables sections (one
// cursor may read both, in that order). The document tables must
// describe a contiguous text layout — the invariant DocAtByTables'
// binary search and SubPath's offset arithmetic rely on.
func ViewFlat(symbols, tables *flat.Cursor) (*Corpus, error) {
	sigma := symbols.Int()
	symToEdge := symbols.U32s()
	if err := symbols.Err(); err != nil {
		return nil, err
	}
	docStarts := tables.I32s()
	docLens := tables.I32s()
	if err := tables.Err(); err != nil {
		return nil, err
	}
	if sigma != len(symToEdge)+int(FirstEdgeSym) || len(docStarts) != len(docLens) ||
		len(docStarts) == 0 {
		return nil, fmt.Errorf("%w: corpus tables (sigma=%d edges=%d docs=%d/%d)",
			flat.ErrCorrupt, sigma, len(symToEdge), len(docStarts), len(docLens))
	}
	for i := 1; i < len(symToEdge); i++ {
		if symToEdge[i] <= symToEdge[i-1] {
			return nil, fmt.Errorf("%w: edge IDs not strictly increasing at %d", flat.ErrCorrupt, i)
		}
	}
	// Only the table's endpoints are validated — a full contiguity
	// sweep would make opening a mapped container O(trajectories).
	// An interior row that lies about its start or length misdirects
	// the binary search or the extraction range; both end in a
	// bounds-checked panic the query layer contains, or a wrong
	// answer, never a wild read.
	last := len(docStarts) - 1
	if docStarts[0] != 0 || docLens[last] < 1 || docStarts[last] < int32(last) {
		return nil, fmt.Errorf("%w: document table endpoints (start0=%d lastStart=%d lastLen=%d)",
			flat.ErrCorrupt, docStarts[0], docStarts[last], docLens[last])
	}
	return &Corpus{
		Sigma:     sigma,
		symToEdge: symToEdge,
		docStarts: docStarts,
		docLens:   docLens,
	}, nil
}
