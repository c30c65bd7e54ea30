package trajstr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Legacy corpus metadata stream, read by LoadMeta and no longer written
// (v3 sections carry the metadata flat, see flat.go): the edge map and
// document tables are enough to interpret a core index (the text itself
// is recoverable from the self-index and is not stored). All counts are
// uvarints; edge IDs ascend and are delta-coded.

const metaMagic = "CNCTmeta"

// ErrBadMeta reports a malformed corpus metadata stream.
var ErrBadMeta = errors.New("trajstr: bad corpus metadata")

// LoadMeta reads legacy corpus metadata. The returned
// corpus has no Text; only table-based operations work. Declared
// counts never translate into upfront allocations — the tables grow
// with the entries actually parsed, so arbitrary bytes cannot make
// LoadMeta allocate beyond a small multiple of the input size.
func LoadMeta(r io.Reader) (*Corpus, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(metaMagic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMeta, err)
	}
	if string(got) != metaMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadMeta)
	}
	read := func() (uint64, error) { return binary.ReadUvarint(br) }
	sigma, err := read()
	if err != nil || sigma > 1<<32 {
		return nil, fmt.Errorf("%w: sigma", ErrBadMeta)
	}
	nEdges, err := read()
	if err != nil || nEdges+uint64(FirstEdgeSym) != sigma {
		return nil, fmt.Errorf("%w: edge count %d vs sigma %d", ErrBadMeta, nEdges, sigma)
	}
	capHint := func(declared uint64) int {
		if declared < 1<<16 {
			return int(declared)
		}
		return 1 << 16
	}
	c := &Corpus{
		Sigma:     int(sigma),
		edgeToSym: make(map[uint32]uint32, capHint(nEdges)),
		symToEdge: make([]uint32, 0, capHint(nEdges)),
	}
	prev := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		d, err := read()
		if err != nil {
			return nil, fmt.Errorf("%w: edge table", ErrBadMeta)
		}
		prev += d
		if prev > 1<<32-1 {
			return nil, fmt.Errorf("%w: edge ID overflow", ErrBadMeta)
		}
		c.symToEdge = append(c.symToEdge, uint32(prev))
		c.edgeToSym[uint32(prev)] = uint32(i) + FirstEdgeSym
	}
	nDocs, err := read()
	if err != nil {
		return nil, fmt.Errorf("%w: doc count", ErrBadMeta)
	}
	c.docStarts = make([]int32, 0, capHint(nDocs))
	c.docLens = make([]int32, 0, capHint(nDocs))
	pos := int64(0)
	for k := uint64(0); k < nDocs; k++ {
		l, err := read()
		if err != nil || l == 0 || l > 1<<31-1 {
			return nil, fmt.Errorf("%w: doc length", ErrBadMeta)
		}
		c.docStarts = append(c.docStarts, int32(pos))
		c.docLens = append(c.docLens, int32(l))
		pos += int64(l) + 1 // the '$'
		if pos > 1<<31-1 {
			return nil, fmt.Errorf("%w: text length overflows int32", ErrBadMeta)
		}
	}
	return c, nil
}
