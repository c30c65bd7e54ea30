package cinct

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cinct/internal/core"
	"cinct/internal/trajstr"
)

// Stream formats. A one-shard index is written in the single-index
// (seed v1) format: the corpus metadata (edge map, document table)
// followed by the compressed core index. More shards are written in
// the sharded container (versioned):
//
//	magic   "CNCTshrd"                 8 bytes
//	version uvarint                    currently 1
//	K       uvarint                    shard count
//	routing K × uvarint                trajectories per shard
//	frames  K × (uvarint len, bytes)   each the single-index format
//
// The routing table is redundant with the framed shards (each frame
// embeds its document table) but lets a reader size the ID space and
// validate frames without trusting them; the length prefixes make the
// frames skippable for future selective/lazy shard loading.

const (
	shardMagic   = "CNCTshrd"
	shardVersion = 1
)

// ErrBadShardContainer reports a malformed sharded index stream.
var ErrBadShardContainer = errors.New("cinct: bad sharded index container")

// ErrCorruptIndex reports an index stream whose corpus metadata and
// compressed core disagree — each half parsed, but pairing them would
// let a query walk out of bounds.
var ErrCorruptIndex = errors.New("cinct: corpus metadata inconsistent with core index")

// Save writes the spatial index to w; Load reads it back. Timestamps,
// if any, are not written — that is TemporalIndex.Save.
func (ix *Index) Save(w io.Writer) (int64, error) {
	if len(ix.shards) == 1 {
		return ix.shards[0].save(w)
	}
	bw := bufio.NewWriter(w)
	var n int64
	writeUvarint := func(v uint64) error {
		var buf [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(buf[:], v)
		n += int64(k)
		_, err := bw.Write(buf[:k])
		return err
	}
	if _, err := bw.WriteString(shardMagic); err != nil {
		return n, err
	}
	n += int64(len(shardMagic))
	if err := writeUvarint(shardVersion); err != nil {
		return n, err
	}
	if err := writeUvarint(uint64(len(ix.shards))); err != nil {
		return n, err
	}
	for _, sh := range ix.shards {
		if err := writeUvarint(uint64(sh.corpus.NumTrajectories())); err != nil {
			return n, err
		}
	}
	var frame bytes.Buffer
	for s, sh := range ix.shards {
		frame.Reset()
		if _, err := sh.save(&frame); err != nil {
			return n, fmt.Errorf("cinct: saving shard %d: %w", s, err)
		}
		if err := writeUvarint(uint64(frame.Len())); err != nil {
			return n, err
		}
		k, err := bw.Write(frame.Bytes())
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// save writes the single-index (seed v1) format.
func (sh *shard) save(w io.Writer) (int64, error) {
	n1, err := sh.corpus.SaveMeta(w)
	if err != nil {
		return n1, err
	}
	n2, err := sh.core.Save(w)
	return n1 + n2, err
}

// Load reads an index written by Save or SaveV3 — any format: the
// sharded and v3 containers are recognized by their magics, anything
// else is parsed as the original single-index layout.
func Load(r io.Reader) (*Index, error) {
	// One shared buffered reader: the sub-loaders each call
	// bufio.NewReader, which returns this same object rather than
	// wrapping again — so no bytes are lost to read-ahead.
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(v3Magic)); err == nil && isV3Magic(magic) {
		return loadV3(br, v3FlavorSpatial)
	}
	if magic, err := br.Peek(len(shardMagic)); err == nil && string(magic) == shardMagic {
		return loadSharded(br)
	}
	sh, err := loadShard(br)
	if err != nil {
		return nil, err
	}
	return newIndex(sh)
}

// loadShard reads the single-index (seed v1) format and cross-validates
// the halves: the document tables must describe exactly the text the
// core index was built over, so shape corruption fails the load
// instead of panicking inside a query.
func loadShard(br *bufio.Reader) (*shard, error) {
	corpus, err := trajstr.LoadMeta(br)
	if err != nil {
		return nil, err
	}
	ci, err := core.Load(br)
	if err != nil {
		return nil, err
	}
	sh := &shard{corpus: corpus, core: ci}
	return sh, sh.validate()
}

// validate cross-checks a loaded shard's two halves.
func (sh *shard) validate() error {
	if got, want := sh.core.Len(), sh.corpus.TextLenFromTables(); got != want {
		return fmt.Errorf("%w: core holds %d symbols, document tables imply %d",
			ErrCorruptIndex, got, want)
	}
	if got, want := sh.core.Sigma(), sh.corpus.Sigma; got != want {
		return fmt.Errorf("%w: core alphabet %d, corpus alphabet %d",
			ErrCorruptIndex, got, want)
	}
	return nil
}

// loadSharded reads the sharded container.
func loadSharded(br *bufio.Reader) (*Index, error) {
	if _, err := br.Discard(len(shardMagic)); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShardContainer, err)
	}
	version, err := binary.ReadUvarint(br)
	if err != nil || version != shardVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadShardContainer, version)
	}
	k, err := binary.ReadUvarint(br)
	if err != nil || k == 0 || k > 1<<20 {
		return nil, fmt.Errorf("%w: shard count %d", ErrBadShardContainer, k)
	}
	routing := make([]uint64, k)
	for s := range routing {
		routing[s], err = binary.ReadUvarint(br)
		if err != nil || routing[s] == 0 {
			return nil, fmt.Errorf("%w: routing table", ErrBadShardContainer)
		}
	}
	shards := make([]*shard, k)
	for s := range shards {
		frameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("%w: shard %d frame length", ErrBadShardContainer, s)
		}
		// LimitReader confines each shard loader to its frame so a
		// short or overlong frame is an error here, not a corrupt read
		// of the next shard; the drain repositions br at the next
		// frame even if the loader under-consumed.
		lr := io.LimitReader(br, int64(frameLen))
		sh, err := loadShard(bufio.NewReader(lr))
		if err != nil {
			return nil, fmt.Errorf("cinct: loading shard %d: %w", s, err)
		}
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, fmt.Errorf("%w: shard %d frame", ErrBadShardContainer, s)
		}
		if n := sh.corpus.NumTrajectories(); uint64(n) != routing[s] {
			return nil, fmt.Errorf("%w: shard %d holds %d trajectories, routing table says %d",
				ErrBadShardContainer, s, n, routing[s])
		}
		shards[s] = sh
	}
	ix, err := newIndex(shards...)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShardContainer, err)
	}
	return ix, nil
}
