// Package legacy decodes the index files builds wrote in older
// formats: the stream formats from before the v3 container, v3
// containers of versions 3 and 4, and version-5 containers whose
// labeled wavelet trees are kind 6 encoding 1. No serving path reads
// them — cinct.Load and cinct.OpenMapped refuse them with
// cinct.ErrLegacyFormat — and `cinct convert`, this package's only
// importer, turns one into the current format by rebuilding the index
// from the corpus Decode recovers.
//
// Decode needs neither the wavelet tree nor the locate samples those
// files hold. It inverts the labeled BWT with plain slices — BWT[j] is
// the out-edge row j's label names in row j's context, LF comes from
// one counting pass — and walks LF once from the terminator's row to
// read the text back. The stream layouts, integers unsigned varints
// unless noted (the version-3 and -4 containers are described at
// container):
//
//	single index  corpus metadata, then core index
//	metadata      "CNCTmeta", σ, edge count σ−2, ascending edge IDs
//	              delta-coded, document count, document lengths
//	core index    "CiNCTv1\x00", header (n, σ, max label, bit-vector
//	              kind, RRR block, labeling strategy, seed, SA sample
//	              rate), C as per-symbol counts, per context the
//	              out-degree and (target, signed Z) in label order, max
//	              label+1 code-length bytes, the bit count, the
//	              Huffman-coded labels as little-endian 64-bit words
//	sharded       "CNCTshrd", version 1, K, K routing entries (the
//	              trajectories per shard), K × (length, single index)
//	temporal      "CNCTtemp", version 2, store count S, a single or
//	              sharded index, S × (length, store); S = 1 beside
//	              several shards is one corpus-wide store
//	unversioned   a single or sharded index, then one store
//	store         column count, column lengths, blob length, blob of
//	              zig-zag varint deltas, each column from zero
package legacy

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cinct/internal/etgraph"
	"cinct/internal/huffman"
	"cinct/internal/trajstr"
	"cinct/internal/wavelet"
)

const (
	metaMagic     = "CNCTmeta"
	coreMagic     = "CiNCTv1\x00"
	shardMagic    = "CNCTshrd"
	temporalMagic = "CNCTtemp"
	// maxFrames bounds the shard and store counts a header may declare.
	maxFrames = 1 << 20
)

// ErrCorrupt reports input that is not a well-formed index file in an
// older format. Every error Decode returns wraps it.
var ErrCorrupt = errors.New("legacy: corrupt legacy index file")

// Options mirrors cinct.Options field for field, so a caller rebuilds
// with cinct.Options(c.Options) and the compiler keeps the two in step.
type Options struct {
	Block          int
	Uncompressed   bool
	RandomLabeling bool
	Seed           int64
	SampleRate     int
	Shards         int
}

// Corpus is what an old file holds: its trajectories in ID order and,
// for a temporal file, their timestamp columns, with its shard count and
// the build options its first shard's core header recorded.
type Corpus struct {
	Trajs   [][]uint32 // edge IDs in travel order
	Times   [][]int64  // row-aligned with Trajs; nil for a spatial file
	Options Options
}

// Decode reads an index file in any of the older layouts. The flavor
// comes from the input alone: a "CNCTtemp" magic, bytes left after the
// spatial stream, or a version-3 or -4 container's temporal flavor make it
// temporal. Declared counts never size an allocation before the data
// behind them has been read, and any inconsistency fails with
// ErrCorrupt: arbitrary bytes decode to a corpus that cinct.Build
// accepts with the decoded options, or fail typed.
func Decode(r io.Reader) (*Corpus, error) {
	var c *Corpus
	if err := catch(func() { c = stream{bufio.NewReader(r)}.file() }); err != nil {
		return nil, err
	}
	return c, nil
}

// failure carries a decode error up the stack: the decoders panic with
// one (see fail) and catch recovers it at the package boundary, so each
// check of the input is a single line.
type failure struct{ err error }

// fail aborts decoding with an ErrCorrupt that says why.
func fail(format string, args ...any) {
	panic(failure{fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)})
}

func check(ok bool, format string, args ...any) {
	if !ok {
		fail(format, args...)
	}
}

// catch runs f and returns its failure — or, as an ErrCorrupt, any
// other panic, which input that is inconsistent yet parses can raise.
func catch(f func()) (err error) {
	defer func() {
		switch rec := recover().(type) {
		case nil:
		case failure:
			err = rec.err
		default:
			err = fmt.Errorf("%w: %v", ErrCorrupt, rec)
		}
	}()
	f()
	return nil
}

// stream is the input; its reads fail on a short or malformed stream.
type stream struct{ *bufio.Reader }

func (s stream) uvarint(what string) uint64 {
	v, err := binary.ReadUvarint(s)
	check(err == nil, "%s: %v", what, err)
	return v
}

// count reads a uvarint that may not exceed limit.
func (s stream) count(what string, limit uint64) uint64 {
	v := s.uvarint(what)
	check(v <= limit, "%s %d exceeds %d", what, v, limit)
	return v
}

func (s stream) magic(want string) {
	got := make([]byte, len(want))
	_, err := io.ReadFull(s, got)
	check(err == nil && string(got) == want, "magic %q, want %q", got, want)
}

// frames decodes n length-prefixed frames, each confined to its frame
// and the stream repositioned after it even if decode under-consumed.
func (s stream) frames(n int, what string, decode func(i int, frame stream)) {
	for i := 0; i < n; i++ {
		lr := io.LimitReader(s, int64(s.count(what+" frame length", math.MaxInt64)))
		decode(i, stream{bufio.NewReader(lr)})
		_, err := io.Copy(io.Discard, lr)
		check(err == nil, "%s %d frame: %v", what, i, err)
	}
}

// file decodes a whole file.
func (s stream) file() *Corpus {
	var shards []shard
	var stored [][][]int64
	switch head, _ := s.Peek(len(metaMagic)); string(head) {
	case containerMagic:
		shards, stored = s.container()
	case temporalMagic:
		s.magic(temporalMagic)
		v := s.uvarint("temporal container version")
		check(v == 2, "temporal container version %d", v)
		stores := int(s.count("store count", maxFrames))
		check(stores > 0, "temporal container without stores")
		shards = s.spatial()
		s.frames(stores, "store", func(_ int, f stream) { stored = append(stored, f.store()) })
	case metaMagic, shardMagic:
		// The unversioned temporal layout is a spatial stream, then one
		// store.
		shards = s.spatial()
		if _, err := s.Peek(1); err != io.EOF {
			stored = append(stored, s.store())
		}
	default:
		fail("magic %q is no legacy index format", head)
	}
	c := &Corpus{Options: shards[0].opts}
	c.Options.Shards = len(shards)
	for _, sh := range shards {
		check((sh.opts.SampleRate > 0) == (c.Options.SampleRate > 0), "shards disagree on locate support")
		c.Trajs = append(c.Trajs, sh.trajs...)
	}
	if stored != nil {
		c.attach(stored, shards)
	}
	return c
}

// attach sets c.Times from the stores after checking that they cover
// exactly the trajectories: one store per shard holding its shard's
// columns, or one corpus-wide store; every column as long as its
// trajectory.
func (c *Corpus) attach(stored [][][]int64, shards []shard) {
	check(len(stored) == 1 || len(stored) == len(shards), "%d timestamp stores for %d shards", len(stored), len(shards))
	for i, cols := range stored {
		check(len(stored) == 1 || len(cols) == len(shards[i].trajs),
			"store %d holds %d columns for %d trajectories", i, len(cols), len(shards[i].trajs))
		c.Times = append(c.Times, cols...)
	}
	check(len(c.Times) == len(c.Trajs), "%d timestamp columns for %d trajectories", len(c.Times), len(c.Trajs))
	for k, col := range c.Times {
		check(len(col) == len(c.Trajs[k]), "trajectory %d has %d edges but %d timestamps", k, len(c.Trajs[k]), len(col))
	}
	check(c.Options.SampleRate > 0, "temporal index without locate support")
}

// shard is one decoded single index.
type shard struct {
	trajs [][]uint32
	opts  Options
}

// spatial decodes a single index or a sharded container.
func (s stream) spatial() []shard {
	if head, _ := s.Peek(len(shardMagic)); string(head) != shardMagic {
		return []shard{s.single()}
	}
	s.magic(shardMagic)
	v := s.uvarint("sharded container version")
	check(v == 1, "sharded container version %d", v)
	k := s.count("shard count", maxFrames)
	check(k > 0, "sharded container without shards")
	routing := make([]uint64, k)
	for i := range routing {
		routing[i] = s.uvarint("routing table")
		check(routing[i] > 0, "routing table gives shard %d no trajectories", i)
	}
	shards := make([]shard, k)
	s.frames(int(k), "shard", func(i int, f stream) {
		shards[i] = f.single()
		check(uint64(len(shards[i].trajs)) == routing[i],
			"shard %d holds %d trajectories, routing table says %d", i, len(shards[i].trajs), routing[i])
	})
	return shards
}

// single decodes the single-index format and pairs its halves: the
// document tables must describe exactly the text the core index holds.
func (s stream) single() shard {
	m := s.meta()
	text, sigma, opts := s.core()
	check(sigma == len(m.edges)+int(trajstr.FirstEdgeSym), "core alphabet %d, corpus metadata has %d edges", sigma, len(m.edges))
	return shard{trajs: m.split(text), opts: opts}
}

// meta is the corpus metadata of one single index.
type meta struct {
	edges []uint32 // edges[sym-FirstEdgeSym] is the symbol's edge ID
	lens  []int    // trajectory lengths in ID order
	n     int      // the text length the tables imply
}

func (s stream) meta() *meta {
	s.magic(metaMagic)
	sigma := s.count("corpus alphabet", 1<<32)
	nEdges := s.uvarint("edge count")
	check(nEdges+uint64(trajstr.FirstEdgeSym) == sigma, "edge count %d vs sigma %d", nEdges, sigma)
	m := &meta{edges: make([]uint32, 0, min(nEdges, 1<<16))}
	id := uint64(0)
	for i := uint64(0); i < nEdges; i++ {
		d := s.count("edge ID delta", math.MaxUint32)
		id += d
		check((i == 0 || d > 0) && id <= math.MaxUint32, "edge IDs not increasing below 2³² at %d", i)
		m.edges = append(m.edges, uint32(id))
	}
	nDocs := s.uvarint("document count")
	check(nDocs > 0, "no documents")
	m.lens = make([]int, 0, min(nDocs, 1<<16))
	m.n = 1 // the final '#'
	for k := uint64(0); k < nDocs; k++ {
		l := s.count("document length", math.MaxInt32)
		m.lens = append(m.lens, int(l))
		m.n += int(l) + 1 // its edges and '$'
		check(m.n <= math.MaxInt32, "text length overflows int32")
	}
	return m
}

// split cuts the text into trajectories along the document tables: each
// document is its trajectory reversed, then '$'; the text ends in '#'.
func (m *meta) split(text []uint32) [][]uint32 {
	check(len(text) == m.n, "core holds %d symbols, document tables imply %d", len(text), m.n)
	trajs := make([][]uint32, len(m.lens))
	pos := 0
	for k, l := range m.lens {
		check(l > 0, "empty document %d", k)
		tr := make([]uint32, l)
		for i := range tr {
			sym := text[pos+l-1-i]
			check(sym >= trajstr.FirstEdgeSym, "sentinel %d inside trajectory %d", sym, k)
			tr[i] = m.edges[sym-trajstr.FirstEdgeSym]
		}
		trajs[k] = tr
		pos += l
		check(text[pos] == trajstr.SymSep, "trajectory %d not followed by a separator", k)
		pos++
	}
	check(text[pos] == trajstr.SymHash, "text does not end in the terminator")
	return trajs
}

// core decodes a core index into the text its labeled BWT encodes, its
// alphabet size, and the build options its header records.
func (s stream) core() (text []uint32, sigma int, opts Options) {
	s.magic(coreMagic)
	n, sigma, maxLabel, opts := header(func() uint64 { return s.uvarint("core header") })

	// Rows of context w, the suffixes starting with symbol w, occupy
	// [c[w], c[w+1]).
	c := make([]uint64, 1, min(sigma+1, 1<<16))
	for w := 0; w < sigma; w++ {
		c = append(c, c[w]+s.count("C array count", uint64(n)))
	}
	// Label l in context w names the edge adj[w][l-1]; the Z terms serve
	// only rank and are skipped.
	adj := make([][]etgraph.Edge, 0, min(sigma, 1<<16))
	maxDeg := 0
	for w := 0; w < sigma; w++ {
		deg := s.count("out-degree", uint64(sigma))
		to := make([]etgraph.Edge, 0, min(deg, 1<<12))
		for range deg {
			to = append(to, etgraph.Edge{To: uint32(s.count("edge target", uint64(sigma-1)))})
			_, err := binary.ReadVarint(s)
			check(err == nil, "edge Z: %v", err)
		}
		adj = append(adj, to)
		maxDeg = max(maxDeg, len(to))
	}
	check(maxDeg == maxLabel, "max out-degree %d != header maxLabel %d", maxDeg, maxLabel)
	return invert(s.labels(n, maxLabel), adj, c), sigma, opts
}

// header reads and checks the fields both core layouts open with — n,
// σ, max label, bit-vector kind, RRR block, labeling strategy, seed, SA
// sample rate — and returns the build options they record.
func header(next func() uint64) (n, sigma, maxLabel int, opts Options) {
	var hdr [8]uint64
	for i := range hdr {
		hdr[i] = next()
	}
	check(hdr[0] >= 1 && hdr[0] <= math.MaxInt32 && hdr[1] >= 2 && hdr[1] <= 1<<32 && hdr[2] <= hdr[1],
		"implausible core header (n=%d sigma=%d maxLabel=%d)", hdr[0], hdr[1], hdr[2])
	switch kind, block := wavelet.BitvecKind(hdr[3]), hdr[4]; {
	case kind == wavelet.PlainBits:
		opts.Uncompressed = true
	case kind == wavelet.RRRBits && (block == 15 || block == 31 || block == 63):
		opts.Block = int(block)
	default:
		fail("unknown bit-vector spec (kind=%d block=%d)", hdr[3], hdr[4])
	}
	switch etgraph.Strategy(hdr[5]) {
	case etgraph.BigramSorted:
	case etgraph.RandomShuffle:
		opts.RandomLabeling = true
	default:
		fail("unknown labeling strategy %d", hdr[5])
	}
	check(hdr[7] <= math.MaxInt32, "SA sample rate %d", hdr[7])
	opts.Seed, opts.SampleRate = int64(hdr[6]), int(hdr[7])
	return int(hdr[0]), int(hdr[1]), int(hdr[2]), opts
}

// invert recovers the text from the labels of a labeled BWT, the
// out-edges adj[w] of each context w in label order, and C (c[w] the
// first row of context w), as the package comment describes.
func invert(bwt []uint32, adj [][]etgraph.Edge, c []uint64) []uint32 {
	n, sigma := len(bwt), len(adj)
	check(c[sigma] == uint64(n), "C array ends at %d, want %d", c[sigma], n)
	for w := 0; w < sigma; w++ {
		check(c[w] <= c[w+1], "C array not monotone at %d", w)
		for j := c[w]; j < c[w+1]; j++ {
			l := bwt[j]
			check(l >= 1 && int(l) <= len(adj[w]), "label %d at row %d outside [1,%d] for context %d", l, j, len(adj[w]), w)
			bwt[j] = adj[w][l-1].To
		}
	}
	// LF[j], the row of the suffix one position left of row j's, is
	// C[BWT[j]] plus BWT[j]'s occurrences before j.
	lf := make([]int, n)
	free := append([]uint64(nil), c[:sigma]...)
	for j, w := range bwt {
		lf[j] = int(free[w])
		free[w]++
	}
	for w := 0; w < sigma; w++ {
		check(free[w] == c[w+1], "the BWT holds %d of symbol %d, C says %d", free[w]-c[w], w, c[w+1]-c[w])
	}
	// Row 0 is the terminator's suffix, at n−1, and BWT[j] precedes row
	// j's suffix in the text. The walk must be one n-cycle: a row
	// revisited early would leave text positions unread. A visited row's
	// LF becomes −1.
	text := make([]uint32, n)
	j := 0
	for pos := n - 1; pos >= 0; pos-- {
		next := lf[j]
		check(next >= 0, "LF mapping revisits row %d after %d steps", j, n-1-pos)
		text[(pos+n-1)%n] = bwt[j]
		lf[j], j = -1, next
	}
	return text
}

// labels decodes the Huffman code lengths and the n labels they code.
func (s stream) labels(n, maxLabel int) []uint32 {
	// Bounded chunks: a lying maxLabel dies at the first short read, not
	// at a huge make.
	lengths := make([]uint8, 0, min(maxLabel+1, 1<<16))
	var chunk [4096]byte
	for len(lengths) < maxLabel+1 {
		k := min(maxLabel+1-len(lengths), len(chunk))
		_, err := io.ReadFull(s, chunk[:k])
		check(err == nil, "code lengths: %v", err)
		lengths = append(lengths, chunk[:k]...)
	}
	nbits := s.uvarint("bit count")
	// Every code is at least one bit, so n ≤ nbits, and the labels are
	// allocated only once the words holding them have been read.
	check(uint64(n) <= nbits, "%d symbols in %d bits", n, nbits)
	words := make([]uint64, 0, min(nbits/64+1, 1<<16))
	var w [8]byte
	for i := uint64(0); i < (nbits+63)/64; i++ {
		_, err := io.ReadFull(s, w[:])
		check(err == nil, "bit stream: %v", err)
		words = append(words, binary.LittleEndian.Uint64(w[:]))
	}
	dec := huffman.NewDecoder(huffman.FromLengths(lengths))
	labels := make([]uint32, n)
	pos := 0
	for j := range labels {
		var l int
		l, pos = dec.Decode(words, pos)
		check(uint64(pos) <= nbits, "bit stream overrun")
		labels[j] = uint32(l)
	}
	return labels
}

// store decodes one timestamp store into its columns.
func (s stream) store() [][]int64 {
	nTraj := s.count("store column count", math.MaxInt32)
	lens := make([]uint64, 0, min(nTraj, 1<<16))
	var entries uint64
	for range nTraj {
		l := s.count("store column length", math.MaxInt32)
		lens = append(lens, l)
		entries += l
	}
	// Every entry takes at least one byte, and ReadAll grows with the
	// bytes that arrive, not with the declared length; the blob in hand
	// then bounds every column.
	blobLen := s.uvarint("store blob length")
	check(blobLen >= entries, "store blob of %d bytes for %d entries", blobLen, entries)
	blob, err := io.ReadAll(io.LimitReader(s, int64(blobLen)))
	check(err == nil && uint64(len(blob)) == blobLen, "store blob truncated at %d of %d bytes", len(blob), blobLen)
	cols := make([][]int64, len(lens))
	pos := 0
	for k, l := range lens {
		col := make([]int64, l)
		prev := int64(0)
		for i := range col {
			d, n := binary.Varint(blob[pos:])
			check(n > 0, "store column %d truncated at entry %d", k, i)
			pos += n
			prev += d
			col[i] = prev
		}
		cols[k] = col
	}
	check(pos == len(blob), "store has %d trailing blob bytes", len(blob)-pos)
	return cols
}
