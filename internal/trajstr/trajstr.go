// Package trajstr implements the trajectory string of Definition 2: a
// corpus of network-constrained trajectories is concatenated as
// T = rev(T₁) $ rev(T₂) $ … rev(T_N) $ #, with '#' the unique smallest
// terminator and '$' the document separator. It owns the mapping
// between external road-segment (edge) IDs and the dense internal
// alphabet, and the mapping from text positions back to trajectory IDs
// and offsets (used by locate).
package trajstr

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Internal alphabet layout. Road edges occupy [FirstEdgeSym, Sigma).
const (
	SymHash      uint32 = 0 // '#', end of the trajectory string
	SymSep       uint32 = 1 // '$', trajectory boundary
	FirstEdgeSym uint32 = 2
)

// Corpus is an encoded trajectory corpus.
type Corpus struct {
	// Text is the trajectory string T over the dense alphabet.
	Text []uint32
	// Sigma is the alphabet size (distinct edges + 2 sentinels).
	Sigma int

	symToEdge []uint32 // symToEdge[sym-FirstEdgeSym] = external edge ID, strictly increasing
	docStarts []int32  // text position of each reversed trajectory's first symbol
	docLens   []int32
}

// ErrEmptyTrajectory is returned when a trajectory has no edges.
var ErrEmptyTrajectory = errors.New("trajstr: empty trajectory")

// ErrEmptyCorpus is returned when no trajectories are supplied.
var ErrEmptyCorpus = errors.New("trajstr: empty corpus")

// New encodes the corpus. Edge IDs are mapped to dense symbols in
// increasing ID order (the paper notes any lexicographic order works).
func New(trajs [][]uint32) (*Corpus, error) {
	if len(trajs) == 0 {
		return nil, ErrEmptyCorpus
	}
	total := 0
	edgeSet := make(map[uint32]struct{}, 1024)
	for i, tr := range trajs {
		if len(tr) == 0 {
			return nil, fmt.Errorf("%w (index %d)", ErrEmptyTrajectory, i)
		}
		total += len(tr)
		for _, e := range tr {
			edgeSet[e] = struct{}{}
		}
	}
	edges := make([]uint32, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })

	c := &Corpus{
		Sigma:     len(edges) + int(FirstEdgeSym),
		symToEdge: edges,
		docStarts: make([]int32, len(trajs)),
		docLens:   make([]int32, len(trajs)),
	}
	edgeToSym := make(map[uint32]uint32, len(edges))
	for i, e := range edges {
		edgeToSym[e] = uint32(i) + FirstEdgeSym
	}

	c.Text = make([]uint32, 0, total+len(trajs)+1)
	for k, tr := range trajs {
		c.docStarts[k] = int32(len(c.Text))
		c.docLens[k] = int32(len(tr))
		for i := len(tr) - 1; i >= 0; i-- { // reversed per Def. 2
			c.Text = append(c.Text, edgeToSym[tr[i]])
		}
		c.Text = append(c.Text, SymSep)
	}
	c.Text = append(c.Text, SymHash)
	return c, nil
}

// NumTrajectories returns the number of documents in the corpus.
func (c *Corpus) NumTrajectories() int { return len(c.docStarts) }

// Len returns the trajectory string length |T|.
func (c *Corpus) Len() int { return len(c.Text) }

// TextLenFromTables returns |T| as implied by the document tables
// alone (equal to Len when the text is present): all documents with
// their '$' separators, plus the trailing '#'. Loaders use it to
// cross-check corpus metadata against the self-index it was paired
// with.
func (c *Corpus) TextLenFromTables() int {
	k := len(c.docStarts) - 1
	if k < 0 {
		return 1
	}
	return int(c.docStarts[k]) + int(c.docLens[k]) + 2
}

// NumEdges returns the number of distinct road edges.
func (c *Corpus) NumEdges() int { return len(c.symToEdge) }

// EdgeFor maps a dense symbol back to the external edge ID. It panics
// on sentinel or out-of-range symbols.
func (c *Corpus) EdgeFor(sym uint32) uint32 {
	if sym < FirstEdgeSym || int(sym) >= c.Sigma {
		panic(fmt.Sprintf("trajstr: symbol %d is not an edge", sym))
	}
	return c.symToEdge[sym-FirstEdgeSym]
}

// EncodePath maps a path of external edge IDs (in travel order) to
// internal symbols, by binary search of the sorted symbol map. ok is
// false if any edge never occurs in the corpus — in which case no
// trajectory can match it.
func (c *Corpus) EncodePath(path []uint32) ([]uint32, bool) {
	out := make([]uint32, len(path))
	for i, e := range path {
		j, ok := slices.BinarySearch(c.symToEdge, e)
		if !ok {
			return nil, false
		}
		out[i] = uint32(j) + FirstEdgeSym
	}
	return out, true
}

// ReversedPattern encodes path and reverses it: the trajectory string
// stores reversed trajectories, so a travel-order path e₁…e_m occurs in
// T as e_m…e₁.
func (c *Corpus) ReversedPattern(path []uint32) ([]uint32, bool) {
	enc, ok := c.EncodePath(path)
	if !ok {
		return nil, false
	}
	for i, j := 0, len(enc)-1; i < j; i, j = i+1, j-1 {
		enc[i], enc[j] = enc[j], enc[i]
	}
	return enc, ok
}

// Trajectory reconstructs trajectory k in travel order, as external
// edge IDs.
func (c *Corpus) Trajectory(k int) []uint32 {
	if k < 0 || k >= len(c.docStarts) {
		panic(fmt.Sprintf("trajstr: trajectory %d out of range [0,%d)", k, len(c.docStarts)))
	}
	start, ln := int(c.docStarts[k]), int(c.docLens[k])
	out := make([]uint32, ln)
	for i := 0; i < ln; i++ {
		// Text holds the reversal; undo it.
		out[ln-1-i] = c.EdgeFor(c.Text[start+i])
	}
	return out
}

// TrajectoryLen returns the number of edges of trajectory k.
func (c *Corpus) TrajectoryLen(k int) int { return int(c.docLens[k]) }

// DocAt maps a text position to (trajectory ID, offset in travel
// order). ok is false when pos points at a '$' or '#' sentinel. It
// requires the corpus text to be present.
func (c *Corpus) DocAt(pos int) (doc, offset int, ok bool) {
	if pos < 0 || pos >= len(c.Text) {
		panic(fmt.Sprintf("trajstr: position %d out of range [0,%d)", pos, len(c.Text)))
	}
	if c.Text[pos] < FirstEdgeSym {
		return 0, 0, false
	}
	return c.DocAtByTables(pos)
}

// DocAtByTables is DocAt computed from the document tables alone — it
// works after the text has been dropped (the index is a self-index).
// Sentinel positions are detected as positions past a document's edges.
func (c *Corpus) DocAtByTables(pos int) (doc, offset int, ok bool) {
	if pos < 0 {
		panic(fmt.Sprintf("trajstr: position %d negative", pos))
	}
	// Manual binary search for the last start <= pos: this runs once
	// per located occurrence and sort.Search's func value would be the
	// only allocation on that path.
	lo, hi := 0, len(c.docStarts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(c.docStarts[mid]) > pos {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := lo - 1
	if k < 0 {
		return 0, 0, false
	}
	revOff := pos - int(c.docStarts[k])
	if revOff >= int(c.docLens[k]) {
		return 0, 0, false // '$' after document k, or the final '#'
	}
	return k, int(c.docLens[k]) - 1 - revOff, true
}

// DocStart returns the text position of trajectory k's first (reversed)
// symbol.
func (c *Corpus) DocStart(k int) int { return int(c.docStarts[k]) }
