package legacy

import (
	"encoding/binary"
	"io"

	"cinct/internal/bitvec"
	"cinct/internal/etgraph"
	"cinct/internal/flat"
	"cinct/internal/tempo"
	"cinct/internal/trajstr"
	"cinct/internal/wavelet"
)

const (
	containerMagic = "CNCTidx3"
	// symbolsPerWord bounds a frame's text by the file's size: a root
	// wavelet-tree node costs at least a 6-bit RRR(63) class per 63 symbols.
	symbolsPerWord = 11 * 64
)

// container decodes a v3 container of version 3 or 4, or of version 5
// with its labeled wavelet trees in kind 6 encoding 1 (see v5). Version
// 3 and 4 have a header {magic,
// version, flavor (1 spatial, 2 temporal), section count, file size,
// shard count K (0 for one shard), store count T, 0}, TOC entries
// {kind, shard, offset, length}, then K page-aligned spatial frames
// (kind 1) — corpus metadata, then the core index, whose locate samples
// are never read — and T timestamp stores (kind 2): one per shard, or
// in version 3 one corpus-wide.
func (s stream) container() ([]shard, [][][]int64) {
	raw, err := io.ReadAll(s)
	check(err == nil && len(raw) >= 64 && len(raw)%8 == 0 && flat.CanView(),
		"container of %d bytes: %v (little-endian host: %v)", len(raw), err, flat.CanView())
	words := make([]uint64, len(raw)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	if words[1] == 5 {
		return v5(words)
	}
	flavor, nSec, shards, stores := words[2], words[3], max(words[5], 1), words[6]
	check(words[1] == 3 || words[1] == 4, "container version %d is not a legacy one", words[1])
	check(nSec <= uint64(len(words)-8)/4 && shards <= nSec && nSec == shards+stores,
		"%d sections for %d shards and %d stores", nSec, shards, stores)
	check(flavor == 1 && stores == 0 || flavor == 2 && stores > 0, "flavor %d with %d stores", flavor, stores)
	section := func(i, kind, shard uint64) *flat.Cursor {
		e := words[8+4*i:]
		check(e[0] == kind && e[1] == shard && e[2]%8 == 0 && e[3]%8 == 0 && e[2] <= uint64(len(raw)) && e[3] <= uint64(len(raw))-e[2],
			"TOC entry %d {%d, %d, %d, %d} is not section (%d, %d) of %d bytes", i, e[0], e[1], e[2], e[3], kind, shard, len(raw))
		return flat.NewCursor(words[e[2]/8 : (e[2]+e[3])/8])
	}
	frames := make([]shard, 0, shards)
	for i := range shards {
		frames = append(frames, frame(section(i, 1, i), len(words)))
	}
	var stored [][][]int64
	for i := range stores {
		stored = append(stored, columns(section(shards+i, 2, i), i))
	}
	return frames, stored
}

// columns decodes timestamp store i into its columns. The view checks
// that each column's bytes are in the blob, so decoding them allocates
// in proportion to the file.
func columns(c *flat.Cursor, i uint64) [][]int64 {
	ts, err := tempo.ViewFlat(c)
	check(err == nil, "timestamp store %d: %v", i, err)
	cols := make([][]int64, ts.NumTrajectories())
	for k := range cols {
		cols[k] = ts.Column(k)
	}
	return cols
}

// v5 decodes a container of version 5 whose labeled wavelet trees are
// kind 6 encoding 1, from before the separator's context was escaped:
// a header {magic, version, shard count K, section count S, file size},
// S TOC entries {kind | encoding<<32, shard, byte offset, byte length}
// grouped by shard. A shard's sections of kinds 1–6 (symbol map,
// trajectory tables, core parameters, C, ET-graph, labeled wavelet
// tree, each encoding 1) lie back to back, the words frame decodes; its
// locate sections (kinds 7–9) are never read, and a kind-10 section is
// its timestamp store, which every shard has or none.
func v5(words []uint64) ([]shard, [][][]int64) {
	shards, nSec := words[2], words[3]
	check(shards > 0 && nSec <= uint64(len(words)-5)/4 && shards <= nSec,
		"%d sections for %d shards in %d words", nSec, shards, len(words))
	toc := words[5 : 5+4*nSec]
	var frames []shard
	var stored [][][]int64
	for i := uint64(0); i < nSec; {
		k := uint64(len(frames))
		var start, end uint64
		next := uint64(1) // the kind of the next frame section
		for ; i < nSec && toc[4*i+1] == k; i++ {
			e := toc[4*i : 4*i+4]
			kind, enc, off, length := e[0]&(1<<32-1), e[0]>>32, e[2], e[3]
			check(enc == 1 && off%8 == 0 && length%8 == 0 && off <= 8*uint64(len(words)) && length <= 8*uint64(len(words))-off,
				"TOC entry %d {kind %d, encoding %d, %d, %d} is no legacy section of %d words", i, kind, enc, off, length, len(words))
			switch {
			case kind == next && kind <= 6:
				check(kind == 1 || off == end, "shard %d: kind %d section at byte %d, want %d", k, kind, off, end)
				if kind == 1 {
					start = off
				}
				end, next = off+length, next+1
			case kind >= 7 && kind <= 9 && next == 7:
			case kind == 10 && next == 7 && len(stored) == len(frames):
				stored = append(stored, columns(flat.NewCursor(words[off/8:(off+length)/8]), k))
			default:
				fail("shard %d: TOC entry %d has kind %d out of place", k, i, kind)
			}
		}
		check(next == 7, "TOC entry %d: shard %d has %d of its 6 frame sections", i, k, next-1)
		frames = append(frames, frame(flat.NewCursor(words[start/8:end/8]), len(words)))
	}
	check(uint64(len(frames)) == shards && (len(stored) == 0 || len(stored) == len(frames)),
		"%d shards and %d timestamp stores, header says %d shards", len(frames), len(stored), shards)
	return frames, stored
}

// frame decodes a spatial frame of a fileWords-word container: corpus
// metadata, then a core header (the v1 one, the rate again, the labels'
// entropy), C, the ET-graph and the labeled wavelet tree.
func frame(cur *flat.Cursor, fileWords int) shard {
	corpus, err := trajstr.ViewFlat(cur, cur)
	check(err == nil, "corpus metadata: %v", err)
	n, sigma, maxLabel, opts := header(cur.U64)
	_, _ = cur.U64(), cur.F64()
	check(cur.Err() == nil && n <= symbolsPerWord*fileWords && sigma == corpus.Sigma,
		"core header: %v (%d symbols in %d words, alphabet %d for %d)", cur.Err(), n, fileWords, sigma, corpus.Sigma)
	cv, err := bitvec.ViewPackedInts(cur)
	check(err == nil && cv.Len() == sigma+1, "C array: %v", err)
	c := make([]uint64, sigma+1)
	for w := range c {
		c[w] = cv.Get(w)
	}
	g, err := etgraph.ViewFlat(cur)
	check(err == nil && g.Sigma() == sigma && g.MaxOutDegree() == maxLabel, "ET-graph: %v", err)
	adj := make([][]etgraph.Edge, sigma)
	for w := range adj {
		adj[w] = g.Edges(uint32(w))
	}
	h, err := wavelet.ViewHWT(cur)
	check(err == nil && h.Len() == n && h.Sigma() == maxLabel+1, "labeled BWT: %v", err)
	labels := make([]uint32, n)
	for j := range labels {
		labels[j] = h.Access(j)
	}
	m := &meta{n: 1}
	for sym := trajstr.FirstEdgeSym; int(sym) < sigma; sym++ {
		m.edges = append(m.edges, corpus.EdgeFor(sym))
	}
	for k := range corpus.NumTrajectories() {
		m.lens = append(m.lens, corpus.TrajectoryLen(k))
		m.n += corpus.TrajectoryLen(k) + 1
	}
	return shard{trajs: m.split(invert(labels, adj, c)), opts: opts}
}
