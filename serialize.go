package cinct

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cinct/internal/core"
	"cinct/internal/trajstr"
)

// Legacy stream formats, read by Load and never written (Save writes
// v3, see serialize_v3.go). Builds before v3 wrote a one-shard index in
// the single-index (seed v1) format — the corpus metadata (edge map,
// document table, magic "CNCTmeta") followed by the compressed core
// index (magic "CiNCTv1"), which Load decodes and rebuilds on the
// heap — and more shards in the sharded container (versioned):
//
//	magic   "CNCTshrd"                 8 bytes
//	version uvarint                    currently 1
//	K       uvarint                    shard count
//	routing K × uvarint                trajectories per shard
//	frames  K × (uvarint len, bytes)   each the single-index format
//
// The routing table is redundant with the framed shards (each frame
// embeds its document table) but lets a reader size the ID space and
// validate frames without trusting them. Files in these formats are
// inputs to Load and `cinct convert` only; testdata/legacy/ holds
// committed examples.

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

// Load reads a spatial index from r: a v3 container as Save writes it
// (one aligned read into the heap; OpenMapped maps the same file
// instead), or any legacy stream format older builds wrote — the
// sharded container is recognized by its magic, anything else is
// parsed as the original single-index layout.
func Load(r io.Reader) (*Index, error) {
	// One shared buffered reader: the sub-loaders each call
	// bufio.NewReader, which returns this same object rather than
	// wrapping again — so no bytes are lost to read-ahead.
	br := bufio.NewReader(r)
	if magic, err := br.Peek(len(v3Magic)); err == nil && isV3Magic(magic) {
		return loadV3(r, br, v3FlavorSpatial)
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
