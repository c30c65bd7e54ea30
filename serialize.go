package cinct

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ErrLegacyFormat reports an index file in one of the stream formats
// builds wrote before the v3 container: the single-index stream, the
// sharded container or the temporal container (magics "CNCTmeta",
// "CNCTshrd", "CNCTtemp"; the unversioned temporal layout starts with
// one of the first two). Load and OpenMapped refuse them; `cinct
// convert` rewrites one as v3, which both serve.
var ErrLegacyFormat = errors.New("cinct: pre-v3 index file; rewrite it as v3 with `cinct convert`")

// legacyMagics are the leading bytes of the pre-v3 formats.
var legacyMagics = []string{"CNCTmeta", "CNCTshrd", "CNCTtemp"}

// checkLegacy refuses a file whose first bytes are a pre-v3 magic.
func checkLegacy(head []byte) error {
	for _, m := range legacyMagics {
		if bytes.HasPrefix(head, []byte(m)) {
			return fmt.Errorf("%w (magic %q)", ErrLegacyFormat, m)
		}
	}
	return nil
}

// ErrCorruptIndex reports an index whose corpus metadata and
// compressed core disagree — each half parsed, but pairing them would
// let a query walk out of bounds.
var ErrCorruptIndex = errors.New("cinct: corpus metadata inconsistent with core index")

// Load reads an index from r: the v3 container Save writes, in one
// aligned read into the heap (OpenMapped maps the same file instead).
// It returns what the file holds — an index with timestamps when the
// header's flavor is temporal, so Temporal reports it. A pre-v3 file
// fails with ErrLegacyFormat, a malformed one with ErrCorrupt.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(len(v3Magic))
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
			ErrCorruptIndex, got, want)
	}
	if got, want := sh.core.Sigma(), sh.corpus.Sigma; got != want {
		return fmt.Errorf("%w: core alphabet %d, corpus alphabet %d",
			ErrCorruptIndex, got, want)
	}
	return nil
}
