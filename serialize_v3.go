package cinct

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"unsafe"

	"cinct/internal/core"
	"cinct/internal/flat"
	"cinct/internal/mmapfile"
	"cinct/internal/tempo"
	"cinct/internal/trajstr"
)

// The container: a single flat file readable in place, and the only
// format Save writes and Load / OpenMapped read. Every structure is a
// section of 64-bit little-endian words with its own TOC entry, which a
// reader wraps in place: OpenMapped serves from a memory mapping, Load
// from one aligned read, and a built shard from the image of its
// sections, so Save only writes the header and TOC and copies words.
//
//	header   5 words (40 bytes)
//	  [0] magic "CNCTidx3"
//	  [1] version (5)
//	  [2] shard count K (at least 1)
//	  [3] section count S
//	  [4] file size in bytes
//	TOC      S × 4 words: {kind | encoding<<32, shard, byte offset, byte length}
//	frames   one per shard, in shard order, each starting on a 4096-byte
//	         page: the shard's sections back to back, in kind order
//
// Section kinds: 1 symbol map, 2 trajectory tables, 3 core parameters,
// 4 C, 5 ET-graph, 6 labeled wavelet tree, 7 row marks, 8 SA samples,
// 9 ISA samples, 10 timestamps. Kinds 1–6 are in every shard; 7–9
// exactly when the shard's parameters record a sample rate > 0; 10 in
// every shard of a temporal index and in none of a spatial one. The
// layout is canonical: padding sits only between the TOC and the first
// frame, between frames and after the last, each time less than a page,
// so header, TOC, sections and padding sum to the file size.
//
// A TOC entry's encoding names its section's layout (kindEncoding). A
// structure whose layout changes gets a new encoding id, not a new
// container version: a reader refuses a (kind, encoding) it does not
// know with ErrLegacyFormat naming both. Versions 3 and 4 are refused
// alike, and so is kind 6 encoding 1, the labeled wavelet tree before
// the separator's context was escaped; `cinct convert` rebuilds them.

const (
	v3Magic    = "CNCTidx3"
	v3Version  = 5
	v3PageSize = 4096

	headerWords   = 5
	tocEntryWords = 4
)

// Section kinds, in the order a shard frame lays them out; core section
// s is of kind kindParams + s.
const (
	kindSymbols = 1 + iota
	kindTables
	kindParams
	kindC
	kindGraph
	kindWT
	kindMark
	kindSA
	kindISA
	kindTimes
	numKinds
)

// kindEncoding is the one encoding of each kind this build reads and
// writes. Kind 6's encoding 2 is the labeled wavelet tree with the $
// block escaped, followed by the wavelet matrix of that block's symbols.
var kindEncoding = [numKinds]uint64{
	kindSymbols: 1, kindTables: 1, kindParams: 1, kindC: 1, kindGraph: 1,
	kindWT: 2, kindMark: 1, kindSA: 1, kindISA: 1, kindTimes: 1,
}

// ErrCorrupt reports a corrupt index: a container that fails to parse
// or to cross-check at open (errors from Load and OpenMapped wrap it,
// possibly alongside the more specific flat/section error), or index
// state that makes a query panic once open (containCorrupt).
var ErrCorrupt = errors.New("cinct: corrupt index")

var v3MagicWord = binary.LittleEndian.Uint64([]byte(v3Magic))

// section is one TOC entry of a shard: its kind, and the words it spans
// in the shard's frame. Its encoding is kindEncoding[kind].
type section struct {
	kind     uint64
	off, len int
}

// layoutShard lays a shard's structures out once, as the frame a
// container stores: its sections in kind order, back to back.
func layoutShard(corpus *trajstr.Corpus, ci *core.Index, ts *tempo.Store) ([]uint64, []section) {
	fw := flat.NewWriter()
	var secs []section
	put := func(kind uint64, write func(*flat.Writer)) {
		off := fw.Len()
		write(fw)
		secs = append(secs, section{kind: kind, off: off, len: fw.Len() - off})
	}
	put(kindSymbols, corpus.AppendSymbols)
	put(kindTables, corpus.AppendTables)
	for s := core.Params; s < core.NumSections && (s < core.Mark || ci.SampleRate() > 0); s++ {
		put(kindParams+uint64(s), func(w *flat.Writer) { ci.AppendSection(w, s) })
	}
	if ts != nil {
		put(kindTimes, ts.AppendFlat)
	}
	// Copied once at its final length: the frame stays resident.
	return append([]uint64(nil), fw.Words()...), secs
}

// viewShard serves a shard from its frame, wrapping every structure in
// place — the one way a shard comes to be, whether built or read from a
// container. Each section must be read to its end, and a timestamp
// store must cover exactly the shard's trajectories, every column as
// long as its trajectory: the invariant that makes every At probe a
// query issues in range by construction.
func viewShard(frame []uint64, secs []section) (*shard, error) {
	if !flat.CanView() {
		return nil, fmt.Errorf("%w: containers require a little-endian host", ErrCorrupt)
	}
	var cur [numKinds]*flat.Cursor
	for _, s := range secs {
		cur[s.kind] = flat.NewCursor(frame[s.off : s.off+s.len])
	}
	if cur[kindSymbols] == nil || cur[kindTables] == nil {
		return nil, fmt.Errorf("%w: a shard without its symbol map or trajectory tables", ErrCorrupt)
	}
	corpus, err := trajstr.ViewFlat(cur[kindSymbols], cur[kindTables])
	if err != nil {
		return nil, err
	}
	ci, err := core.ViewSections([core.NumSections]*flat.Cursor(cur[kindParams : kindParams+core.NumSections]))
	if err != nil {
		return nil, err
	}
	sh := &shard{corpus: corpus, core: ci, frame: frame, secs: secs}
	if err := sh.validate(); err != nil {
		return nil, err
	}
	if c := cur[kindTimes]; c != nil {
		if sh.ts, err = tempo.ViewFlat(c); err != nil {
			return nil, err
		}
		if n := corpus.NumTrajectories(); sh.ts.NumTrajectories() != n {
			return nil, fmt.Errorf("%w: %d timestamp columns for %d trajectories",
				ErrCorrupt, sh.ts.NumTrajectories(), n)
		}
		for k := range corpus.NumTrajectories() {
			if want := corpus.TrajectoryLen(k); sh.ts.Len(k) != want {
				return nil, fmt.Errorf("%w: trajectory %d has %d edges but %d timestamps",
					ErrCorrupt, k, want, sh.ts.Len(k))
			}
		}
	}
	for _, kind := range []uint64{kindSymbols, kindTables, kindTimes} {
		if c := cur[kind]; c != nil && c.Remaining() != 0 {
			return nil, fmt.Errorf("%w: the kind %d section has %d trailing words", ErrCorrupt, kind, c.Remaining())
		}
	}
	return sh, nil
}

// sectionBits sums the bits of the shard's sections of the given kinds.
func (sh *shard) sectionBits(kinds ...uint64) int {
	n := 0
	for _, s := range sh.secs {
		if slices.Contains(kinds, s.kind) {
			n += 64 * s.len
		}
	}
	return n
}

// Save writes the index as a container and returns the number of bytes
// written: the header, the TOC, and each shard's frame as it is held —
// with its timestamps exactly when ix.Temporal(). Load and OpenMapped
// return what the file holds; OpenMapped serves it in place and Load
// reads it back with one aligned read.
func (ix *Index) Save(w io.Writer) (int64, error) {
	nSec := 0
	for _, sh := range ix.shards {
		nSec += len(sh.secs)
	}
	head := make([]uint64, 0, headerWords+tocEntryWords*nSec)
	head = append(head, v3MagicWord, v3Version, uint64(len(ix.shards)), uint64(nSec), 0)
	off := pageAlign(int64(8 * cap(head)))
	for s, sh := range ix.shards {
		for _, sec := range sh.secs {
			head = append(head, sec.kind|kindEncoding[sec.kind]<<32, uint64(s), uint64(off+8*int64(sec.off)), uint64(8*sec.len))
		}
		off = pageAlign(off + 8*int64(len(sh.frame)))
	}
	head[4] = uint64(off)

	// Page-sized writes: a file written in large ones lands in large
	// page-cache folios, which a mapping faults in whole, so an open
	// would make most of the file resident.
	var written int64
	write := func(b []byte) error {
		for len(b) > 0 {
			n, err := w.Write(b[:min(len(b), v3PageSize)])
			written, b = written+int64(n), b[n:]
			if err != nil {
				return err
			}
		}
		return nil
	}
	// pad fills to the next page boundary, where each frame starts and
	// the file ends.
	pad := func() error { return write(zeroPage[:pageAlign(written)-written]) }
	if err := write(wordBytes(head)); err != nil {
		return written, err
	}
	for _, sh := range ix.shards {
		if err := pad(); err != nil {
			return written, err
		}
		if err := write(wordBytes(sh.frame)); err != nil {
			return written, err
		}
	}
	return written, pad()
}

var zeroPage [v3PageSize]byte

func pageAlign(n int64) int64 { return (n + v3PageSize - 1) &^ (v3PageSize - 1) }

// wordBytes views words as their little-endian bytes (the host is
// little-endian wherever a shard exists: viewShard requires it).
func wordBytes(words []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), 8*len(words))
}

// SaveV3 is Save.
//
// Deprecated: Save writes the v3 container.
func (ix *Index) SaveV3(w io.Writer) (int64, error) { return ix.Save(w) }

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

// Mapped reports whether the index serves from a memory-mapped
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
	if _, err := io.ReadFull(src, wordBytes(words)); err != nil {
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

// viewContainer parses a container from its word image, serving every
// shard from its frame in place. Every error wraps ErrCorrupt (section
// errors additionally carry their specific flat/package error) but the
// refusal of an unknown (kind, encoding), which is ErrLegacyFormat.
func viewContainer(words []uint64) (ix *Index, err error) {
	defer func() {
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrLegacyFormat) {
			err = fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	}()
	if len(words) < headerWords {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if words[0] != v3MagicWord || words[1] != v3Version {
		return nil, fmt.Errorf("%w: bad magic or version", ErrCorrupt)
	}
	shardCount, nSec, fileSize := words[2], words[3], words[4]
	if fileSize != uint64(len(words))*8 || fileSize%v3PageSize != 0 {
		return nil, fmt.Errorf("%w: header claims %d bytes, have %d",
			ErrCorrupt, fileSize, len(words)*8)
	}
	// Bound the counts before any arithmetic on them: a section needs a
	// TOC entry and a shard at least one section.
	if shardCount == 0 || nSec > uint64(len(words)-headerWords)/tocEntryWords || shardCount > nSec {
		return nil, fmt.Errorf("%w: header counts (%d shards, %d sections) for %d words",
			ErrCorrupt, shardCount, nSec, len(words))
	}
	toc := words[headerWords : headerWords+tocEntryWords*nSec]
	shards := make([]*shard, 0, shardCount)
	next := uint64(pageAlign(int64(8 * (headerWords + len(toc))))) // where the next frame starts
	for i := uint64(0); i < nSec; {
		start, end := next, next
		var secs []section
		for ; i < nSec && toc[4*i+1] == uint64(len(shards)); i++ {
			e := toc[4*i : 4*i+4]
			kind, enc, off, length := e[0]&(1<<32-1), e[0]>>32, e[2], e[3]
			if kind == 0 || kind >= numKinds || enc != kindEncoding[kind] {
				return nil, fmt.Errorf("%w (section kind %d, encoding %d)", ErrLegacyFormat, kind, enc)
			}
			if len(secs) > 0 && kind <= secs[len(secs)-1].kind {
				return nil, fmt.Errorf("%w: TOC entry %d repeats or reorders kind %d", ErrCorrupt, i, kind)
			}
			if off != end || length%8 != 0 || off > fileSize || length > fileSize-off {
				return nil, fmt.Errorf("%w: TOC entry %d spans [%d,%d+%d) where the frame continues at %d of %d bytes",
					ErrCorrupt, i, off, off, length, end, fileSize)
			}
			secs = append(secs, section{kind: kind, off: int((off - start) / 8), len: int(length / 8)})
			end = off + length
		}
		if len(secs) == 0 {
			return nil, fmt.Errorf("%w: TOC entry %d names shard %d, want %d", ErrCorrupt, i, toc[4*i+1], len(shards))
		}
		sh, err := viewShard(words[start/8:end/8], secs)
		if err != nil {
			return nil, fmt.Errorf("cinct: shard %d: %w", len(shards), err)
		}
		shards = append(shards, sh)
		next = uint64(pageAlign(int64(end)))
	}
	if uint64(len(shards)) != shardCount || next != fileSize {
		return nil, fmt.Errorf("%w: %d shards ending at byte %d; header says %d shards in %d bytes",
			ErrCorrupt, len(shards), next, shardCount, fileSize)
	}
	return newIndex(shards...)
}
