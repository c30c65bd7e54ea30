package cinct

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"cinct/internal/core"
	"cinct/internal/flat"
	"cinct/internal/mmapfile"
	"cinct/internal/tempo"
	"cinct/internal/trajstr"
)

// Container format v3: a single flat file readable in place, and the
// only format Save writes and Load / OpenMapped read. It lays every
// structure out as 64-bit little-endian words so a reader wraps the
// file's bytes directly — OpenMapped memory-maps the file and serves
// queries from the mapping (O(1) open, kernel-managed paging, pages
// shared across processes), and Load falls back to one aligned read of
// the same layout. The header's flavor says whether the file carries
// timestamp stores; both readers return what it holds.
//
//	header   8 words (64 bytes)
//	  [0] magic "CNCTidx3"
//	  [1] version (4)
//	  [2] flavor: 1 spatial, 2 temporal
//	  [3] section count S
//	  [4] file size in bytes
//	  [5] K: spatial shard count (0 = one shard, the single-index form)
//	  [6] T: timestamp store count (0 for spatial files, else one per shard)
//	  [7] reserved (0)
//	TOC      S × 4 words: {kind, shard, byte offset, byte length}
//	  kind 1: spatial frame (flat corpus metadata ++ flat core index)
//	  kind 2: timestamp store (flat tempo store)
//	sections zero-padded to 4096-byte boundaries, in TOC order
//
// Every section offset is page-aligned and every length a multiple of
// 8, so any structure in the file can be viewed as a []uint64 without
// copying. The file size is a whole number of pages.
//
// Version 4 is the only one read. Version 3 (int32 locate samples, maybe
// one store beside several shards) is refused with ErrLegacyFormat, and
// `cinct convert` rebuilds it through internal/legacy.

const (
	v3Magic    = "CNCTidx3"
	v3Version  = 4
	v3PageSize = 4096

	v3FlavorSpatial  = 1
	v3FlavorTemporal = 2

	v3KindSpatial = 1
	v3KindTempo   = 2
)

// ErrCorrupt reports a malformed v3 container. Errors from OpenMapped
// and Load wrap it (possibly alongside the more specific flat/section
// error).
var ErrCorrupt = errors.New("cinct: corrupt v3 container")

func v3MagicWord() uint64 {
	var w uint64
	for i := len(v3Magic) - 1; i >= 0; i-- {
		w = w<<8 | uint64(v3Magic[i])
	}
	return w
}

// Save writes what the index holds as a v3 container and returns the
// number of bytes written: the temporal flavor, with one timestamp
// store per shard, exactly when ix.Temporal(), else the spatial one —
// the mirror of Load and OpenMapped, which return what the header's
// flavor says. OpenMapped serves the file in place and Load reads it
// back with one aligned read.
func (ix *Index) Save(w io.Writer) (int64, error) {
	return saveV3(w, ix)
}

// SaveV3 is Save.
//
// Deprecated: Save writes the v3 container.
func (ix *Index) SaveV3(w io.Writer) (int64, error) { return ix.Save(w) }

type v3Section struct {
	kind  uint64
	shard uint64
	words []uint64
}

// spatialSection lays shard s's corpus metadata and core index out as
// one flat section.
func (sh *shard) spatialSection(s int) v3Section {
	fw := flat.NewWriter()
	sh.corpus.AppendFlatMeta(fw)
	sh.core.AppendFlat(fw)
	return v3Section{kind: v3KindSpatial, shard: uint64(s), words: fw.Words()}
}

// saveV3 is the writer behind Save: the spatial sections, then, for a
// temporal index, one timestamp store per shard.
func saveV3(w io.Writer, ix *Index) (int64, error) {
	var secs []v3Section
	for s, sh := range ix.shards {
		secs = append(secs, sh.spatialSection(s))
	}
	// A one-shard index is written in the single-index form, K = 0.
	shardCount := uint64(len(ix.shards))
	if shardCount == 1 {
		shardCount = 0
	}
	if !ix.Temporal() {
		return writeV3(w, v3FlavorSpatial, shardCount, 0, secs)
	}
	for s, sh := range ix.shards {
		fw := flat.NewWriter()
		sh.ts.AppendFlat(fw)
		secs = append(secs, v3Section{kind: v3KindTempo, shard: uint64(s), words: fw.Words()})
	}
	return writeV3(w, v3FlavorTemporal, shardCount, uint64(len(ix.shards)), secs)
}

// writeV3 lays the sections out behind the header and TOC.
func writeV3(w io.Writer, flavor, shardCount, storeCount uint64, secs []v3Section) (int64, error) {
	alignUp := func(n int64) int64 { return (n + v3PageSize - 1) &^ (v3PageSize - 1) }
	tocBytes := int64(8*8) + int64(len(secs))*4*8
	offset := alignUp(tocBytes)
	toc := make([]uint64, 0, len(secs)*4)
	for _, s := range secs {
		length := int64(len(s.words)) * 8
		toc = append(toc, s.kind, s.shard, uint64(offset), uint64(length))
		offset = alignUp(offset + length)
	}
	fileSize := offset

	header := [8]uint64{
		v3MagicWord(), v3Version, flavor,
		uint64(len(secs)), uint64(fileSize), shardCount, storeCount, 0,
	}

	bw := bufio.NewWriter(w)
	var written int64
	var pad [v3PageSize]byte
	writeWords := func(words []uint64) error {
		var buf [8]byte
		for _, v := range words {
			buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			buf[4], buf[5], buf[6], buf[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
			written += 8
		}
		return nil
	}
	padTo := func(target int64) error {
		for written < target {
			chunk := target - written
			if chunk > v3PageSize {
				chunk = v3PageSize
			}
			if _, err := bw.Write(pad[:chunk]); err != nil {
				return err
			}
			written += chunk
		}
		return nil
	}
	if err := writeWords(header[:]); err != nil {
		return written, err
	}
	if err := writeWords(toc); err != nil {
		return written, err
	}
	for i, s := range secs {
		if err := padTo(int64(toc[4*i+2])); err != nil {
			return written, err
		}
		if err := writeWords(s.words); err != nil {
			return written, err
		}
	}
	if err := padTo(fileSize); err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// OpenMapped memory-maps a v3 container and returns an index whose
// structures read directly from the mapping: open cost is independent
// of index size, resident memory is whatever the kernel pages in (and
// can be evicted under pressure), and processes serving the same file
// share physical pages. The mapping lives as long as the returned
// Index — or any index or running query sharing its shards — is
// reachable; it is released by the garbage collector, so no Close is
// needed (or offered — queries may outlive any safe close point).
// Like Load it returns what the file holds, timestamps included, and
// fails with ErrLegacyFormat on a file in an older format.
func OpenMapped(path string) (*Index, error) {
	f, err := mmapfile.Open(path)
	if err != nil {
		return nil, err
	}
	if err := checkLegacy(f.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	ix, err := viewContainer(f.Words())
	if err != nil {
		f.Close()
		return nil, err
	}
	for _, sh := range ix.shards {
		sh.backing = f
	}
	return ix, nil
}

// Mapped reports whether the index serves from a memory-mapped v3
// container (false for heap-loaded indexes, including v3 files read
// through Load on hosts without mmap).
func (ix *Index) Mapped() bool {
	for _, sh := range ix.shards {
		if sh.backing != nil && sh.backing.Mapped() {
			return true
		}
	}
	return false
}

// v3ReadChunk is the unit in which loadV3 buffers a stream whose
// length it cannot learn up front.
const v3ReadChunk = 64 << 10

// loadV3 reads the rest of a v3 stream — r, buffered by br — into an
// aligned heap image and views it there: the non-mmap path of Load.
// When r knows its length (streamSize) the image is allocated once at
// that size and read straight into; otherwise the stream is read in
// fixed chunks and copied once. No allocation is sized from the header,
// which is not yet verified.
func loadV3(r io.Reader, br *bufio.Reader) (*Index, error) {
	size := streamSize(r)
	var src io.Reader = br
	if size >= 0 {
		size += int64(br.Buffered())
	} else {
		var chunks []io.Reader
		for size = 0; ; {
			chunk := make([]byte, v3ReadChunk)
			n, err := io.ReadFull(br, chunk)
			chunks = append(chunks, bytes.NewReader(chunk[:n]))
			size += int64(n)
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
		src = io.MultiReader(chunks...)
	}
	if size%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of words", ErrCorrupt, size)
	}
	words := make([]uint64, size/8)
	if _, err := io.ReadFull(src, unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), size)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return viewContainer(words)
}

// streamSize reports how many bytes r holds past its current position
// when r can tell without being read — an in-memory buffer or a
// regular file — and -1 otherwise. Unlike a header field it is a fact
// about the input, so loadV3 may size its image from it.
func streamSize(r io.Reader) int64 {
	switch r := r.(type) {
	case *bytes.Reader:
		return int64(r.Len())
	case *bytes.Buffer:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		off, err := r.Seek(0, io.SeekCurrent)
		if err != nil || off > fi.Size() {
			return -1
		}
		return fi.Size() - off
	}
	return -1
}

// viewContainer parses a v3 container from its word image, wrapping
// (not copying) every structure. A temporal container's stores come
// back attached to their shards. Every error wraps ErrCorrupt (section
// errors additionally carry their specific flat/package error).
func viewContainer(words []uint64) (ix *Index, err error) {
	defer func() {
		if err != nil && !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	}()
	if !flat.CanView() {
		return nil, fmt.Errorf("%w: v3 containers require a little-endian host", ErrCorrupt)
	}
	if len(words) < 8 {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if words[0] != v3MagicWord() || words[1] != v3Version {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCorrupt)
	}
	flavor, nSec := words[2], words[3]
	fileSize, shardCount, storeCount := words[4], words[5], words[6]
	if fileSize != uint64(len(words))*8 || fileSize%v3PageSize != 0 {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d",
			ErrCorrupt, fileSize, len(words)*8)
	}
	// A spatial container holds no timestamp store, a temporal one one
	// per shard.
	wantSpatial := max(shardCount, 1)
	if !(flavor == v3FlavorSpatial && storeCount == 0) && !(flavor == v3FlavorTemporal && storeCount == wantSpatial) {
		return nil, fmt.Errorf("%w: flavor %d with %d timestamp stores for %d shards",
			ErrCorrupt, flavor, storeCount, wantSpatial)
	}
	// Bound every header count before any arithmetic on them: a section
	// needs at least one TOC word, so nSec (and hence shardCount and
	// storeCount) can never exceed the file's word count. Checking the
	// fields individually first keeps wantSpatial+storeCount from
	// wrapping uint64 on attacker-controlled headers.
	if nSec > uint64(len(words)) || shardCount > nSec || storeCount > nSec {
		return nil, fmt.Errorf("%w: header counts (%d sections, %d shards, %d stores) exceed %d words",
			ErrCorrupt, nSec, shardCount, storeCount, len(words))
	}
	if nSec != wantSpatial+storeCount {
		return nil, fmt.Errorf("%w: %d sections for %d shards + %d stores",
			ErrCorrupt, nSec, wantSpatial, storeCount)
	}
	tocEnd := 8 + 4*nSec
	if tocEnd > uint64(len(words)) {
		return nil, fmt.Errorf("%w: truncated TOC", ErrCorrupt)
	}

	sectionWords := func(i uint64, wantKind, wantShard uint64) ([]uint64, error) {
		kind, shard := words[8+4*i], words[8+4*i+1]
		off, length := words[8+4*i+2], words[8+4*i+3]
		if kind != wantKind || shard != wantShard {
			return nil, fmt.Errorf("%w: TOC entry %d is (kind=%d shard=%d), want (%d, %d)",
				ErrCorrupt, i, kind, shard, wantKind, wantShard)
		}
		if off%v3PageSize != 0 || length%8 != 0 || off < tocEnd*8 ||
			off > fileSize || length > fileSize-off {
			return nil, fmt.Errorf("%w: TOC entry %d spans [%d,%d+%d) of %d bytes",
				ErrCorrupt, i, off, off, length, fileSize)
		}
		return words[off/8 : off/8+length/8], nil
	}

	shards := make([]*shard, wantSpatial)
	for s := range shards {
		sw, err := sectionWords(uint64(s), v3KindSpatial, uint64(s))
		if err != nil {
			return nil, err
		}
		cur := flat.NewCursor(sw)
		corpus, err := trajstr.ViewFlatMeta(cur)
		if err != nil {
			return nil, fmt.Errorf("cinct: shard %d: %w", s, err)
		}
		ci, err := core.ViewFlat(cur)
		if err != nil {
			return nil, fmt.Errorf("cinct: shard %d: %w", s, err)
		}
		if cur.Remaining() != 0 {
			return nil, fmt.Errorf("%w: shard %d has %d trailing words",
				ErrCorrupt, s, cur.Remaining())
		}
		shards[s] = &shard{corpus: corpus, core: ci}
		if err := shards[s].validate(); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
	}
	if ix, err = newIndex(shards...); err != nil {
		return nil, err
	}
	if storeCount == 0 {
		return ix, nil
	}
	// Each shard's store must cover exactly its trajectories, every
	// column as long as its trajectory — the invariant that makes every
	// At probe a query issues in range by construction.
	for s, sh := range ix.shards {
		sw, err := sectionWords(wantSpatial+uint64(s), v3KindTempo, uint64(s))
		if err != nil {
			return nil, err
		}
		cur := flat.NewCursor(sw)
		ts, err := tempo.ViewFlat(cur)
		if err != nil {
			return nil, fmt.Errorf("cinct: timestamp store %d: %w", s, err)
		}
		if cur.Remaining() != 0 {
			return nil, fmt.Errorf("%w: store %d has %d trailing words",
				ErrCorrupt, s, cur.Remaining())
		}
		lo, hi := ix.bounds[s], ix.bounds[s+1]
		if ts.NumTrajectories() != hi-lo {
			return nil, fmt.Errorf("%w: store %d holds %d columns for %d trajectories",
				ErrCorruptTimestamps, s, ts.NumTrajectories(), hi-lo)
		}
		for id := lo; id < hi; id++ {
			if want := ix.TrajectoryLen(id); ts.Len(id-lo) != want {
				return nil, fmt.Errorf("%w: trajectory %d has %d edges but %d timestamps",
					ErrCorruptTimestamps, id, want, ts.Len(id-lo))
			}
		}
		sh.ts = ts
	}
	return ix, nil
}
