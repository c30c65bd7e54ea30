package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cinct/internal/bitvec"
	"cinct/internal/entropy"
	"cinct/internal/etgraph"
	"cinct/internal/huffman"
	"cinct/internal/wavelet"
)

// Legacy stream format, read by Load and no longer written (indexes are
// saved as flat v3 sections, see flat.go): magic, an 8-uvarint header
// (n, σ, max label, bit-vector kind and block, strategy, seed, SA
// sample rate), the C array as per-symbol counts, the ET-graph as
// out-degree then (To, Z) per edge in label order, and the labeled BWT
// Huffman-coded; the wavelet tree and locate structures are rebuilt on
// load. All integers are little-endian; variable counts use unsigned
// varints and signed values zig-zag.

const magic = "CiNCTv1\x00"

// ErrBadFormat reports a malformed or truncated index stream.
var ErrBadFormat = errors.New("core: bad index format")

// minCap bounds an initial slice capacity by a declared-but-untrusted
// count: allocation then grows with the data actually parsed, so a
// lying header cannot make Load allocate more than a small multiple
// of the real input size.
func minCap(declared, cap int) int {
	if declared < cap {
		return declared
	}
	return cap
}

// Load reads an index in the legacy stream format. It is hardened
// against arbitrary bytes: declared counts never translate into
// upfront allocations (slices grow with the data actually parsed),
// structural invariants are checked before use, and any residual
// panic from inconsistent-but-parseable structures is converted into
// ErrBadFormat — corrupt input yields a typed error, never a crash.
func Load(r io.Reader) (ix *Index, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			ix, err = nil, fmt.Errorf("%w: %v", ErrBadFormat, rec)
		}
	}()
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(got) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadFormat)
	}
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }
	readS := func() (int64, error) { return binary.ReadVarint(br) }

	var hdr [8]uint64
	for i := range hdr {
		v, err := readU()
		if err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrBadFormat, err)
		}
		hdr[i] = v
	}
	n, sigma, maxLabel := int(hdr[0]), int(hdr[1]), int(hdr[2])
	if n < 0 || sigma < 2 || maxLabel < 0 || maxLabel > sigma {
		return nil, fmt.Errorf("%w: implausible header (n=%d sigma=%d maxLabel=%d)",
			ErrBadFormat, n, sigma, maxLabel)
	}
	spec := wavelet.BitvecSpec{Kind: wavelet.BitvecKind(hdr[3]), Block: int(hdr[4])}
	switch {
	case spec.Kind == wavelet.PlainBits:
	case spec.Kind == wavelet.RRRBits && (spec.Block == 15 || spec.Block == 31 || spec.Block == 63):
	default:
		return nil, fmt.Errorf("%w: unknown bit-vector spec (kind=%d block=%d)", ErrBadFormat, hdr[3], hdr[4])
	}
	ix = &Index{
		n: n, sigma: sigma, maxLabel: maxLabel,
		opt: Options{
			Spec:     spec,
			Strategy: etgraph.Strategy(hdr[5]),
			Seed:     int64(hdr[6]),
			SASample: int(hdr[7]),
		},
		sampleRate: int(hdr[7]),
	}
	rawC := make([]uint64, 1, minCap(sigma+1, 1<<16))
	for w := 0; w < sigma; w++ {
		d, err := readU()
		if err != nil {
			return nil, fmt.Errorf("%w: C array: %v", ErrBadFormat, err)
		}
		rawC = append(rawC, rawC[w]+d)
	}
	if rawC[sigma] != uint64(n) {
		return nil, fmt.Errorf("%w: C array sums to %d, want %d", ErrBadFormat, rawC[sigma], n)
	}
	ix.c = bitvec.PackInts(rawC)
	// ET-graph.
	adj := make([][]etgraph.Edge, 0, minCap(sigma, 1<<16))
	for wp := 0; wp < sigma; wp++ {
		deg, err := readU()
		if err != nil || deg > uint64(sigma) {
			return nil, fmt.Errorf("%w: adjacency of %d", ErrBadFormat, wp)
		}
		es := make([]etgraph.Edge, 0, minCap(int(deg), 1<<12))
		for i := 0; i < int(deg); i++ {
			to, err := readU()
			if err != nil || to >= uint64(sigma) {
				return nil, fmt.Errorf("%w: edge target", ErrBadFormat)
			}
			z, err := readS()
			if err != nil {
				return nil, fmt.Errorf("%w: edge Z", ErrBadFormat)
			}
			es = append(es, etgraph.Edge{To: uint32(to), Z: z})
		}
		adj = append(adj, es)
	}
	ix.graph = etgraph.FromAdjacency(adj)
	if ix.graph.MaxOutDegree() != maxLabel {
		return nil, fmt.Errorf("%w: max out-degree %d != header maxLabel %d",
			ErrBadFormat, ix.graph.MaxOutDegree(), maxLabel)
	}
	ix.graph.Compact()
	// Labeled BWT. The code-length table is read in bounded chunks (a
	// lying maxLabel dies at the first truncated read, not at a huge
	// make), and every length is validated against the 63-bit code
	// bound FromLengths enforces by panic.
	lengths := make([]uint8, 0, minCap(maxLabel+1, 1<<16))
	var chunk [4096]byte
	for len(lengths) < maxLabel+1 {
		k := maxLabel + 1 - len(lengths)
		if k > len(chunk) {
			k = len(chunk)
		}
		if _, err := io.ReadFull(br, chunk[:k]); err != nil {
			return nil, fmt.Errorf("%w: code lengths: %v", ErrBadFormat, err)
		}
		lengths = append(lengths, chunk[:k]...)
	}
	for s, l := range lengths {
		if l > 63 {
			return nil, fmt.Errorf("%w: code length %d for label %d", ErrBadFormat, l, s)
		}
	}
	cb := huffman.FromLengths(lengths)
	nbits, err := readU()
	if err != nil {
		return nil, fmt.Errorf("%w: bit count: %v", ErrBadFormat, err)
	}
	// Every Huffman code is at least one bit (a single-symbol alphabet
	// gets length 1), so n > nbits is corrupt — and rejecting it here
	// bounds the label allocation by the bit stream actually read.
	if uint64(n) > nbits {
		return nil, fmt.Errorf("%w: %d symbols in %d bits", ErrBadFormat, n, nbits)
	}
	nwords := int(nbits / 64)
	if nbits%64 != 0 {
		nwords++
	}
	words := make([]uint64, 0, minCap(nwords+1, 1<<16))
	var wb [8]byte
	for i := 0; i < nwords; i++ {
		if _, err := io.ReadFull(br, wb[:]); err != nil {
			return nil, fmt.Errorf("%w: bit stream: %v", ErrBadFormat, err)
		}
		words = append(words, binary.LittleEndian.Uint64(wb[:]))
	}
	// Guard word: a corrupt stream can send the decoder walking up to
	// 63 bits past nbits before the overrun check fires; the pad keeps
	// that walk in bounds so it fails as ErrBadFormat, not a panic.
	words = append(words, 0)
	dec := huffman.NewDecoder(cb)
	labels := make([]uint32, 0, minCap(n, 1<<20))
	pos := 0
	for j := 0; j < n; j++ {
		var sym int
		sym, pos = dec.Decode(words, pos)
		if pos > int(nbits) {
			return nil, fmt.Errorf("%w: bit stream overrun", ErrBadFormat)
		}
		labels = append(labels, uint32(sym))
	}
	// Every row's label must be decodable in its context (rows with
	// context w occupy C[w]..C[w+1); labels are 1-based ranks into the
	// context's out-edges): a label outside [1, outdeg] would panic
	// deep inside a query's LF step — on a fan-out goroutine no
	// recover can reach — so reject it here.
	for w := 0; w < sigma; w++ {
		deg := uint32(ix.graph.OutDegree(uint32(w)))
		for j := rawC[w]; j < rawC[w+1]; j++ {
			if labels[j] < 1 || labels[j] > deg {
				return nil, fmt.Errorf("%w: label %d at row %d outside [1,%d] for context %d",
					ErrBadFormat, labels[j], j, deg, w)
			}
		}
	}
	freqs := make([]uint64, maxLabel+1)
	for _, l := range labels {
		freqs[l]++
	}
	ix.labeled = wavelet.NewHWTFreqs(labels, freqs, ix.opt.Spec)
	ix.h0Labeled = entropy.H0Freqs(freqs)
	// Rebuild locate structures by walking the LF permutation once
	// (O(n) rank operations): the walk from row 0 (SA[0] = n−1) visits
	// every row and reveals its suffix position — and doubles as the
	// permutation check: an LF that revisits a row before covering all
	// n would strand later Locate walks on unsampled cycles.
	if ix.sampleRate > 0 {
		if err := ix.rebuildLocate(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// rebuildLocate reconstructs the sampled-row bit vector, the SA samples
// and the ISA samples from the loaded structures alone — the index is a
// self-index, so the suffix array is implicit in LF: the walk from row
// 0 (SA[0] = n−1) visits the rows of positions n−1, n−2, …, 0. It fails
// with ErrBadFormat when the LF walk is not a single n-cycle: a corrupt
// stream can parse into a mapping that collapses onto a short cycle,
// leaving rows no Locate walk could ever escape from.
func (ix *Index) rebuildLocate() error {
	sa := make([]int32, ix.n)
	for i := range sa {
		sa[i] = -1
	}
	j := int64(0)
	wPrime := ix.contextOf(j)
	for pos := ix.n - 1; pos >= 0; pos-- {
		if sa[j] >= 0 {
			return fmt.Errorf("%w: LF mapping revisits row %d after %d steps", ErrBadFormat, j, ix.n-1-pos)
		}
		sa[j] = int32(pos)
		j, wPrime = ix.lfFrom(j, wPrime)
	}
	ix.buildSamples(sa, ix.sampleRate)
	return nil
}
