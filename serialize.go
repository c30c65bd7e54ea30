package cinct

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrLegacyFormat reports an index file in a format this build does not
// read: a pre-v3 stream (magics "CNCTmeta", "CNCTshrd", "CNCTtemp"; the
// unversioned temporal layout starts with one of the first two), a v3
// container of version 4 or older, or a container with a section of a
// (kind, encoding) this build does not know. Load and OpenMapped refuse
// them; `cinct convert` rewrites an older file in the current format.
var ErrLegacyFormat = errors.New("cinct: index file in an older format; rewrite it with `cinct convert`")

// checkLegacy refuses a file whose first 16 bytes are a pre-v3 magic,
// or the v3 magic and a container version of 4 or less.
func checkLegacy(head []byte) error {
	for _, m := range []string{"CNCTmeta", "CNCTshrd", "CNCTtemp"} {
		if bytes.HasPrefix(head, []byte(m)) {
			return fmt.Errorf("%w (magic %q)", ErrLegacyFormat, m)
		}
	}
	if len(head) >= 16 && string(head[:8]) == v3Magic {
		if v := binary.LittleEndian.Uint64(head[8:]); v < v3Version {
			return fmt.Errorf("%w (container version %d)", ErrLegacyFormat, v)
		}
	}
	return nil
}

// Load reads an index from r: the container Save writes, in one
// aligned read into the heap (OpenMapped maps the same file instead).
// It returns what the file holds — an index with timestamps when its
// shards have timestamp sections, so Temporal reports it. An older file
// fails with ErrLegacyFormat, a malformed one with ErrCorrupt.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(16)
	if err := checkLegacy(head); err != nil {
		return nil, err
	}
	return loadV3(r, br)
}

// validate cross-checks a loaded shard's two halves: the document
// tables must describe exactly the text the core index was built over,
// so shape corruption fails the load instead of panicking inside a
// query.
func (sh *shard) validate() error {
	if got, want := sh.core.Len(), sh.corpus.TextLenFromTables(); got != want {
		return fmt.Errorf("%w: core holds %d symbols, document tables imply %d",
			ErrCorrupt, got, want)
	}
	if got, want := sh.core.Sigma(), sh.corpus.Sigma; got != want {
		return fmt.Errorf("%w: core alphabet %d, corpus alphabet %d",
			ErrCorrupt, got, want)
	}
	return nil
}
