// Package engine is the serving layer between the cinct library and
// any front end (the cinctd HTTP daemon, the cinct CLI, tests): a
// catalog of named, independently loaded index files behind one
// Engine type with context-aware query methods, a bounded LRU result
// cache, and a worker pool that bounds concurrent wavelet-tree
// traversals.
//
// The split mirrors the daemon → router → handler layering of large Go
// servers: the engine owns index lifecycle and concurrency; transports
// stay trivial.
package engine

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"cinct"
	"cinct/internal/wal"
)

// File extensions recognized by OpenDir. Both name a v3 container,
// spatial or temporal as its header says; ".tcinct" is only the
// conventional name of a temporal one.
const (
	ExtSpatial  = ".cinct"
	ExtTemporal = ".tcinct"
)

var (
	// ErrNotFound reports a query against an index name the catalog
	// does not hold (never loaded, or closed).
	ErrNotFound = errors.New("engine: no such index")
	// ErrStaleCursor reports a resume cursor minted before the index
	// was reloaded or replaced: the trajectory-ID space may have been
	// renumbered, so resuming would silently page through wrong data.
	// Re-issue the query without a cursor. Cursors survive Append and
	// Seal — only wholesale swaps invalidate them.
	ErrStaleCursor = errors.New("engine: stale cursor (index reloaded since it was issued)")
)

// entry is one named index file in the catalog. Every entry has one
// lifecycle: open (Load or OpenDir) binds it, Reload rebinds it, and
// markClosed ends it — for Close, CloseAll, a Load over its name and
// Shutdown alike. The entry's RWMutex guards the *binding* from name
// to writer (which load generation is current, whether the entry is
// closed). Queries snapshot the binding under
// RLock, and the writer hands each one an immutable (sealed shards,
// delta prefix) pair to run lock-free against, so a slow traversal
// never blocks a Reload and a Reload never blocks in-flight queries —
// they simply finish against the generation they started on.
type entry struct {
	name string
	path string // the index file: opened, reloaded and persisted to
	// ingestMu orders Append's two effects — the writer's ID
	// assignment and the WAL record — so the log's record order always
	// matches global-ID order and replay never sees interleaved
	// batches. markClosed takes it too, so an Append either completes,
	// logged, before its entry ends or fails with ErrNotFound.
	ingestMu sync.Mutex
	// persistMu serializes persistEntry: an explicit Seal, a threshold
	// seal and Compact all write path+".tmp", and two concurrent
	// writers would interleave in that file or rename it from under
	// each other. markClosed and Reload take it too, so a persist never
	// overlaps them, and Reloads of one entry run one at a time. The
	// entry has three locks, taken in this order: persistMu, ingestMu,
	// mu.
	persistMu sync.Mutex

	mu sync.RWMutex
	// binding identifies the index the entry serves (see bind); cached
	// results are keyed by it and gen.
	binding uint64
	gen     uint64
	// sig fingerprints the index as loaded (a hash of its structural
	// Stats). Unlike the epoch — which restarts at 1 in every process —
	// the sig is derived from the data, so a cursor carrying (epoch,
	// sig) stays resumable across a restart of an unchanged index but
	// fails typed when the file changed while the process was down.
	// It is computed by bind only, never on Append or Seal: cursors
	// survive in-process ingestion by design.
	sig uint64
	// epoch tracks the identity of the trajectory-ID space: it bumps
	// only when the binding is replaced wholesale (Reload, or a Load
	// over the same name), never on Append or Seal — those extend the
	// ID space without renumbering. Cursors are bound to the epoch
	// they were minted in (see wrapCursor), so a resume against a
	// reloaded index fails with ErrStaleCursor instead of silently
	// paging through renumbered data, while a resume across a seal
	// keeps working.
	epoch uint64
	// w is what the entry serves: every query reads it and every
	// append, seal and compaction goes through it. The loaded index is
	// its sealed base, so an entry nobody writes to is simply a writer
	// whose delta stays empty.
	w *cinct.Writer
	// sealing admits one threshold-triggered background seal at a time.
	sealing atomic.Bool
	// sealErr records the outcome of the most recent persistence
	// attempt after a seal or compaction (nil on success or when there
	// is nothing to persist). Engine.Seal retries and returns it, so a
	// failed disk write is never reported as a durable seal.
	sealErr error
	// wal is the entry's write-ahead log, non-nil only when the engine
	// runs with Options.WAL.Dir. Appends are logged before being
	// acknowledged; replayed into the delta on open; retired once
	// sealed rows persist.
	wal    *wal.Log
	closed bool

	// walErr poisons ingestion after a WAL append failed: the failed
	// batch's rows sit in the delta holding assigned global IDs with
	// no log record, so any further logged append would write a gapped
	// FirstID that a later replay must refuse as missing acknowledged
	// data. Guarded by ingestMu (not mu); cleared when openWAL
	// attaches a fresh log — a Reload rebuilds the delta from the log,
	// discarding the never-acknowledged gap rows.
	walErr error
}

// view is an immutable snapshot of an entry's current binding.
type view struct {
	name    string
	binding uint64
	gen     uint64
	epoch   uint64
	sig     uint64
	w       *cinct.Writer
}

// newWriter wraps a loaded index as the writer an entry serves from.
// NewWriterAt fails only on a nil index or invalid build options, and
// the engine passes neither.
func newWriter(ix *cinct.Index) *cinct.Writer {
	w, err := cinct.NewWriterAt(ix, cinct.WriterConfig{})
	if err != nil {
		panic(err)
	}
	return w
}

// indexSig fingerprints an index's structural identity from its Stats:
// corpus shape plus the exact compressed-structure sizes. Any change to
// the file a node serves (rebuild, different corpus, sealed-in rows)
// moves at least one of these, which is what lets cursors detect "the
// index on disk is not the one this cursor was minted against" across
// process restarts where epochs reset.
func indexSig(ix *cinct.Index) uint64 {
	st := ix.Stats()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		st.Shards, st.Trajectories, st.Edges, st.TextLen, st.MaxLabel,
		st.ETGraphEdges, st.WaveletBits, st.GraphBits, st.CArrayBits, st.LocateBits)
	if ix.Temporal() {
		fmt.Fprintf(h, "|t%d", ix.TimestampBits())
	}
	return h.Sum64()
}

// snapshot captures the entry's current binding, failing if closed.
func (en *entry) snapshot() (view, error) {
	en.mu.RLock()
	defer en.mu.RUnlock()
	if en.closed {
		return view{}, fmt.Errorf("%w: %q", ErrNotFound, en.name)
	}
	return view{name: en.name, binding: en.binding, gen: en.gen, epoch: en.epoch, sig: en.sig, w: en.w}, nil
}

// writer returns the entry's current writer, failing if closed.
func (en *entry) writer() (*cinct.Writer, error) {
	en.mu.RLock()
	defer en.mu.RUnlock()
	if en.closed {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, en.name)
	}
	return en.w, nil
}

// bind serves ix from a fresh writer under binding id, drawn from the
// catalog's one counter for every entry, so no cached result of a
// closed or replaced index answers for its successor, even one under
// the same name whose generations restart. It continues the entry's
// sequences past (gen, epoch); the next epoch invalidates outstanding
// cursors, since a reloaded or replacing file may hold arbitrarily
// different data. The caller holds mu, or the entry is not yet
// published.
func (en *entry) bind(id uint64, ix *cinct.Index, gen, epoch uint64) {
	en.w, en.sig, en.binding = newWriter(ix), indexSig(ix), id
	en.continueFrom(gen, epoch)
}

// continueFrom sets the entry's generation and epoch to the ones after
// (gen, epoch).
func (en *entry) continueFrom(gen, epoch uint64) {
	en.gen, en.epoch = gen+1, epoch+1
}

// swap rebinds a published entry to a freshly loaded index; the old
// writer's unsealed delta does not survive a reload. It returns the new
// generation.
func (en *entry) swap(id uint64, ix *cinct.Index) (uint64, error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.closed {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, en.name)
	}
	en.bind(id, ix, en.gen, en.epoch)
	return en.gen, nil
}

// appendBatch makes a batch visible in the writer, advances the
// generation and tests the rows against the standing queries, all in
// one critical section under mu, the lock snapshot reads. A search
// therefore never pairs the old generation with a writer state that
// already holds the batch: every page cached under generation g was
// computed on a snapshot holding every row published by g, so an
// older snapshot can never overwrite a newer page under the same key.
// The epoch is untouched because appended IDs extend, never renumber,
// the ID space. publishAppend takes only subscription locks, never mu.
func (e *Engine) appendBatch(en *entry, w *cinct.Writer, trajs [][]uint32, times [][]int64) (first int, gen uint64, err error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if first, err = w.AppendBatch(trajs, times); err != nil {
		return 0, en.gen, err
	}
	en.gen++
	e.publishAppend(en.name, first, trajs, times)
	return first, en.gen, nil
}

// loadFromFile opens the entry's backing file as a fresh index,
// spatial or temporal as the file says, mapped zero-copy (one aligned
// read where the host cannot map). A file in an older format fails
// with cinct.ErrLegacyFormat. A mapped file must be replaced by rename, as
// every writer here does: truncating it in place faults its readers.
func (en *entry) loadFromFile() (*cinct.Index, error) {
	ix, err := cinct.OpenMapped(en.path)
	if err != nil {
		return nil, fmt.Errorf("engine: opening %q from %s: %w", en.name, en.path, err)
	}
	return ix, nil
}

// catalog maps names to independently loaded indexes. All methods are
// safe for concurrent use.
type catalog struct {
	mu      sync.RWMutex
	entries map[string]*entry
	// bindings numbers the bindings of every entry (see entry.bind).
	bindings atomic.Uint64
}

func newCatalog() *catalog {
	return &catalog{entries: make(map[string]*entry)}
}

func (c *catalog) get(name string) (*entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	en, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return en, nil
}

// view resolves name to a consistent snapshot of its current index.
func (c *catalog) view(name string) (view, error) {
	en, err := c.get(name)
	if err != nil {
		return view{}, err
	}
	return en.snapshot()
}

// install publishes a new or replacement entry under name and returns
// the error of ending the entry it replaced. A replacement continues
// the old entry's generation and epoch sequences — cursors embed the
// epoch, so a Load over an existing name must invalidate old cursors
// exactly like Reload does.
func (c *catalog) install(en *entry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if old, ok := c.entries[en.name]; ok {
		var gen, epoch uint64
		gen, epoch, err = old.markClosed()
		en.continueFrom(gen, epoch)
	}
	c.entries[en.name] = en
	return err
}

// markClosed ends the entry once a persist and an Append in flight
// have finished, and returns its final generation and epoch. Every call
// on the entry fails with ErrNotFound afterwards. The WAL is synced and
// closed — its segments stay on disk, so unsealed rows replay on the
// next open; err reports a failed final sync. Ending an ended entry
// does nothing.
func (en *entry) markClosed() (gen, epoch uint64, err error) {
	en.persistMu.Lock()
	defer en.persistMu.Unlock()
	en.ingestMu.Lock()
	defer en.ingestMu.Unlock()
	en.mu.Lock()
	defer en.mu.Unlock()
	en.closed = true
	en.w = nil
	if en.wal != nil {
		if err = en.wal.Close(); err != nil {
			err = fmt.Errorf("engine: closing %q write-ahead log: %w", en.name, err)
		}
		en.wal = nil
	}
	return en.gen, en.epoch, err
}

// remove unregisters name and ends its entry.
func (c *catalog) remove(name string) error {
	c.mu.Lock()
	en, ok := c.entries[name]
	delete(c.entries, name)
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	_, _, err := en.markClosed()
	return err
}

// names returns the registered index names, sorted.
func (c *catalog) names() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.entries))
	for name := range c.entries {
		out = append(out, name)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// nameForFile maps a data-dir filename to its index name, returning
// ok=false for files the catalog does not manage.
func nameForFile(filename string) (name string, ok bool) {
	for _, ext := range []string{ExtTemporal, ExtSpatial} {
		if strings.HasSuffix(filename, ext) {
			return strings.TrimSuffix(filename, ext), true
		}
	}
	return "", false
}

// scanDir lists the loadable index files under dir.
func scanDir(dir string) ([]*entry, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*entry
	seen := make(map[string]string)
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		name, ok := nameForFile(f.Name())
		if !ok || name == "" {
			continue
		}
		if prev, dup := seen[name]; dup {
			return nil, fmt.Errorf("engine: index name %q claimed by both %s and %s", name, prev, f.Name())
		}
		seen[name] = f.Name()
		out = append(out, &entry{name: name, path: filepath.Join(dir, f.Name())})
	}
	return out, nil
}
