// Package engine is the serving layer between the cinct library and
// any front end (the cinctd HTTP daemon, the cinct CLI, tests): a
// Catalog of named, independently loaded indexes behind one Engine
// type with context-aware query methods, a bounded LRU result cache,
// and a worker pool that bounds concurrent wavelet-tree traversals.
//
// The split mirrors the daemon → router → handler layering of large Go
// servers: the engine owns index lifecycle and concurrency; transports
// stay trivial.
package engine

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

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
	// ErrNotTemporal reports a temporal query against a spatial-only
	// index.
	ErrNotTemporal = errors.New("engine: index has no timestamps")
	// ErrOutOfRange reports a trajectory ID or sub-path slice outside
	// the index's bounds.
	ErrOutOfRange = errors.New("engine: out of range")
	// ErrNoFile reports a Reload of an index registered directly from
	// memory, with no backing file to re-read.
	ErrNoFile = errors.New("engine: index has no backing file")
	// ErrCorrupt reports a query that panicked over corrupt index
	// state; the panic is contained at the engine boundary so one bad
	// index degrades its own requests instead of the whole process.
	ErrCorrupt = errors.New("engine: corrupt index state")
	// ErrStaleCursor reports a resume cursor minted before the index
	// was reloaded or replaced: the trajectory-ID space may have been
	// renumbered, so resuming would silently page through wrong data.
	// Re-issue the query without a cursor. Cursors survive Append and
	// Seal — only wholesale swaps invalidate them.
	ErrStaleCursor = errors.New("engine: stale cursor (index reloaded since it was issued)")
)

// entry is one named index in the catalog. The immutable cinct index
// itself needs no locking; the entry's RWMutex guards the *binding*
// from name to index state (which load generation is current, whether
// the entry is closed). Queries snapshot the binding under RLock and
// then run lock-free against the immutable index, so a slow traversal
// never blocks a Reload and a Reload never blocks in-flight queries —
// they simply finish against the generation they started on.
type entry struct {
	name string
	path string // backing file; "" when registered from memory

	// loadMu serializes disk loads (concurrent Reloads), keeping the
	// read path's mu free during the expensive file read.
	loadMu sync.Mutex
	// ingestMu orders Append's two effects — the writer's ID
	// assignment and the WAL record — so the log's record order always
	// matches global-ID order and replay never sees interleaved
	// batches.
	ingestMu sync.Mutex
	// persistMu serializes persistEntry: a foreground Seal and the
	// background compactor both write path+".tmp", and two concurrent
	// writers would interleave in that file or rename it from under
	// each other.
	persistMu sync.Mutex

	mu  sync.RWMutex
	gen uint64
	// sig fingerprints the index as loaded (a hash of its structural
	// Stats). Unlike the epoch — which restarts at 1 in every process —
	// the sig is derived from the data, so a cursor carrying (epoch,
	// sig) stays resumable across a restart of an unchanged index but
	// fails typed when the file changed while the process was down.
	// It is computed at load/register/swap time only, never on Append
	// or Seal: cursors survive in-process ingestion by design.
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
	// ix is the loaded index, temporal or not as its file says.
	ix *cinct.Index
	// w is the live ingestion writer, created lazily on the first
	// Append. Once present it supersedes ix (which remains the writer's
	// original base) as the query target.
	w *cinct.Writer
	// sealErr records the outcome of the most recent seal's
	// persistence attempt (nil on success or when there is nothing to
	// persist). Engine.Seal returns it so a failed disk write is never
	// reported as a successful compaction.
	sealErr error
	// wal is the entry's write-ahead log, non-nil only when the engine
	// runs with Options.WAL.Dir on a file-backed entry. Appends are
	// logged before being acknowledged; replayed into the delta on
	// open; retired once sealed rows persist.
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

// target is the query surface a snapshot answers from: the live
// writer once an entry has one, else the loaded index. Both are the
// same thing to a query — a list of shards under global trajectory IDs
// — the writer's just ends in an uncompressed delta.
type target interface {
	Search(ctx context.Context, q cinct.Query) (*cinct.Results, error)
	Trajectory(id int) ([]uint32, error)
	SubPath(id, from, to int) ([]uint32, error)
	NumTrajectories() int
	Stats() cinct.Stats
}

// view is an immutable snapshot of an entry's current binding.
type view struct {
	name  string
	gen   uint64
	epoch uint64
	sig   uint64
	// q is where queries go, chosen once by snapshot; ix and w are the
	// parts it was chosen from, for the callers that manage them.
	q  target
	ix *cinct.Index
	w  *cinct.Writer
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
	v := view{name: en.name, gen: en.gen, epoch: en.epoch, sig: en.sig,
		q: en.ix, ix: en.ix, w: en.w}
	if en.w != nil {
		v.q = en.w
	}
	return v, nil
}

// swap installs a freshly loaded index, bumps the generation
// (orphaning every cached result computed against the old one) and
// the epoch (invalidating outstanding cursors — the reloaded file may
// hold arbitrarily different data), and discards any live writer: an
// unsealed delta does not survive a reload. It returns the new
// generation.
func (en *entry) swap(ix *cinct.Index) (uint64, error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.closed {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, en.name)
	}
	en.gen++
	en.epoch++
	en.ix = ix
	en.sig = indexSig(ix)
	en.w = nil
	return en.gen, nil
}

// appendBatch makes a batch visible in the live writer and advances
// the generation in one critical section under mu, the lock snapshot
// reads. A search therefore never pairs the old generation with a
// writer state that already holds the batch: every page cached under
// generation g was computed on a snapshot holding every row published
// by g, so an older snapshot can never overwrite a newer page under
// the same key. The epoch is untouched because appended IDs extend,
// never renumber, the ID space. AppendBatch's OnAppend hook runs inside
// the section; it takes only subscription locks, never mu.
func (en *entry) appendBatch(w *cinct.Writer, trajs [][]uint32, times [][]int64) (first int, gen uint64, err error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if first, err = w.AppendBatch(trajs, times); err != nil {
		return 0, en.gen, err
	}
	en.gen++
	return first, en.gen, nil
}

// loadFromFile opens the entry's backing file as a fresh index,
// spatial or temporal as the file says, mapped zero-copy (one aligned
// read where the host cannot map). A pre-v3 file fails with
// cinct.ErrLegacyFormat. A mapped file must be replaced by rename, as
// every writer here does: truncating it in place faults its readers.
func (en *entry) loadFromFile() (*cinct.Index, error) {
	ix, err := cinct.OpenMapped(en.path)
	if err != nil {
		return nil, fmt.Errorf("engine: opening %q from %s: %w", en.name, en.path, err)
	}
	return ix, nil
}

// Catalog maps names to independently loaded indexes. All methods are
// safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

func newCatalog() *Catalog {
	return &Catalog{entries: make(map[string]*entry)}
}

func (c *Catalog) get(name string) (*entry, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	en, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return en, nil
}

// view resolves name to a consistent snapshot of its current index.
func (c *Catalog) view(name string) (view, error) {
	en, err := c.get(name)
	if err != nil {
		return view{}, err
	}
	return en.snapshot()
}

// install publishes a new or replacement entry under name. A
// replacement continues the old entry's generation and epoch
// sequences — the cache keys embed (name, generation) and cursors
// embed the epoch, so a Load over an existing name must orphan old
// results and cursors exactly like Reload does.
func (c *Catalog) install(en *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[en.name]; ok {
		gen, epoch := old.markClosed()
		en.gen, en.epoch = gen+1, epoch+1
	}
	c.entries[en.name] = en
}

// markClosed closes the entry and returns its final generation and
// epoch. The WAL is synced and closed — its segments stay on disk, so
// unsealed rows replay when the entry is opened again.
func (en *entry) markClosed() (gen, epoch uint64) {
	en.mu.Lock()
	defer en.mu.Unlock()
	en.closed = true
	en.ix, en.w = nil, nil
	if en.wal != nil {
		en.wal.Close() //nolint:errcheck // best-effort final sync; segments replay regardless
		en.wal = nil
	}
	return en.gen, en.epoch
}

// remove closes and unregisters name.
func (c *Catalog) remove(name string) error {
	c.mu.Lock()
	en, ok := c.entries[name]
	if ok {
		delete(c.entries, name)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	en.markClosed()
	return nil
}

// names returns the registered index names, sorted.
func (c *Catalog) names() []string {
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
