package cinct

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrNotAppendable reports an index that cannot accept a shard: the
// new shard and the existing ones disagree on locate support or on
// carrying timestamps, or the writer's base index has no locate
// support (it serves, but refuses Append and Compact).
var ErrNotAppendable = errors.New("cinct: index layout not appendable")

// WriterConfig tunes a Writer. The zero value is valid: default build
// options.
type WriterConfig struct {
	// Build tunes the compression of sealed shards (nil means
	// DefaultOptions; Shards is ignored — each seal produces exactly
	// one shard).
	Build *Options
}

// Writer is the one write path of the library: an immutable sealed
// index (growing one compressed shard per seal, merged back by
// Compact) plus an uncompressed in-memory delta shard absorbing
// appends. Appended trajectories are queryable immediately — Search
// merges delta hits with sealed hits in canonical (Trajectory, Offset)
// order through the same streaming core every index uses — and are
// assigned stable global IDs that survive sealing and compaction: both
// only move rows to a different compressed representation, never
// renumber them.
//
// All methods are safe for concurrent use, and none starts a
// goroutine: Seal and Compact do their work on the caller's goroutine
// and return when it is done. Deciding when to seal or compact — a
// threshold, a timer, a shutdown — is the owner's job (the serving
// engine does it for every index it serves). Neither blocks readers
// or appenders: the build runs off-lock against a snapshot, and only
// the final swap takes the write lock.
//
// A writer is temporal — every Append carries a timestamp column, and
// interval queries are accepted — when created by NewTemporalWriter or
// over an index that carries timestamps; otherwise it is spatial.
//
// Durability: the delta lives in memory only. Sealed state can be
// persisted with Snapshot + Save, which keeps the timestamps of a
// temporal writer; anything still in the delta at process exit is
// lost unless the caller seals first.
type Writer struct {
	opts     *Options
	temporal bool
	// hasLoc is the base index's locate support; every shard spliced
	// in later must match it, so it never changes.
	hasLoc bool

	// mu guards the published (sealed, delta) binding. sealed is an
	// immutable value swapped wholesale (zero shards until the first
	// seal of a writer that started empty); delta is append-only with
	// the snapshot protocol described in deltaShard.
	mu     sync.RWMutex
	sealed *Index
	delta  *deltaShard

	sealMu sync.Mutex // serializes seals; never held with mu
	// compactMu serializes compaction rounds (concurrent rounds could
	// pick overlapping victim shards); never held with mu or sealMu.
	compactMu sync.Mutex
}

// NewWriter returns an empty spatial writer.
func NewWriter(cfg WriterConfig) (*Writer, error) {
	return newWriter(emptyIndex(true), false, cfg)
}

// NewTemporalWriter returns an empty temporal writer: every Append
// must carry a timestamp column, and interval queries are supported.
func NewTemporalWriter(cfg WriterConfig) (*Writer, error) {
	return newWriter(emptyIndex(true), true, cfg)
}

// NewWriterAt returns a writer whose sealed state starts at an
// existing index; appended trajectories take global IDs after ix's.
// The writer is temporal exactly when ix carries timestamps. A base
// built without locate support (SampleRate 0) is served as it is, but
// Append and Compact fail with ErrNotAppendable: new shards would
// disagree with it on locate support.
func NewWriterAt(ix *Index, cfg WriterConfig) (*Writer, error) {
	if ix == nil {
		return nil, fmt.Errorf("cinct: NewWriterAt requires an index (use NewWriter to start empty)")
	}
	return newWriter(ix, ix.Temporal(), cfg)
}

// NewTemporalWriterAt is NewWriterAt for a temporal index, with the
// temporality carried by the type.
//
// Deprecated: NewWriterAt takes the temporality from the index.
func NewTemporalWriterAt(t *TemporalIndex, cfg WriterConfig) (*Writer, error) {
	if t == nil || t.Index == nil {
		return nil, fmt.Errorf("cinct: NewTemporalWriterAt requires an index (use NewTemporalWriter to start empty)")
	}
	if !t.Temporal() {
		return nil, ErrNoTimestamps
	}
	return newWriter(t.Index, true, cfg)
}

func newWriter(ix *Index, temporal bool, cfg WriterConfig) (*Writer, error) {
	opts := cfg.Build
	if opts == nil {
		opts = DefaultOptions()
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if opts.SampleRate == 0 {
		// A count-only writer would answer occurrence queries from the
		// delta and then lose that ability at the first seal — query
		// behavior must not flip across a compaction, so locate support
		// is mandatory.
		return nil, fmt.Errorf("%w: writer requires SampleRate > 0", ErrNotAppendable)
	}
	return &Writer{
		opts:     opts,
		temporal: temporal,
		hasLoc:   ix.hasLoc,
		sealed:   ix,
		delta:    newDeltaShard(ix.NumTrajectories(), temporal),
	}, nil
}

// appendable reports why the writer cannot grow, or nil: sealed and
// merged shards are built with locate support, which a count-only base
// lacks.
func (w *Writer) appendable() error {
	if !w.hasLoc {
		return fmt.Errorf("%w: base index has no locate support but build options have SampleRate %d",
			ErrNotAppendable, w.opts.SampleRate)
	}
	return nil
}

// Temporal reports whether the writer stores timestamps.
func (w *Writer) Temporal() bool { return w.temporal }

// Append adds one trajectory (with its timestamp column on a temporal
// writer; times must be nil on a spatial one) and returns its global
// ID. The trajectory is immediately visible to Search.
func (w *Writer) Append(edges []uint32, times []int64) (int, error) {
	if err := validateAppend(edges, times, w.temporal); err != nil {
		return 0, err
	}
	var cols [][]int64
	if w.temporal {
		cols = [][]int64{times}
	}
	return w.publish([][]uint32{edges}, cols)
}

// AppendBatch appends trajectories atomically: either every row is
// accepted (returning the first assigned ID; rows get consecutive
// IDs) or none is. times must be nil for a spatial writer, and
// row-aligned for a temporal one.
func (w *Writer) AppendBatch(trajs [][]uint32, times [][]int64) (int, error) {
	if w.temporal != (times != nil) || (times != nil && len(times) != len(trajs)) {
		return 0, fmt.Errorf("%w: %d timestamp columns for %d trajectories on a %s writer",
			ErrBadAppend, len(times), len(trajs), map[bool]string{true: "temporal", false: "spatial"}[w.temporal])
	}
	for k, tr := range trajs {
		var col []int64
		if w.temporal {
			col = times[k]
		}
		if err := validateAppend(tr, col, w.temporal); err != nil {
			return 0, fmt.Errorf("row %d: %w", k, err)
		}
	}
	return w.publish(trajs, times)
}

// publish lands validated rows in the delta under one write lock, so
// a batch becomes visible to Search all at once.
func (w *Writer) publish(trajs [][]uint32, times [][]int64) (int, error) {
	if err := w.appendable(); err != nil {
		return 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.delta.base + len(w.delta.trajs)
	for k, tr := range trajs {
		var col []int64
		if w.temporal {
			col = times[k]
		}
		w.delta.append(tr, col)
	}
	return first, nil
}

// Seal compacts the current delta into one CiNCT-compressed shard and
// swaps it into the sealed index, returning the number of
// trajectories compacted (0 when the delta was empty). Appends and
// searches proceed during the compaction: the build runs against a
// snapshot of the delta prefix, rows appended meanwhile simply remain
// in the (rebased) delta, and readers observe either the old state or
// the new one — never a mix — because the swap is a single
// write-locked pointer update. Global IDs are unchanged by sealing.
func (w *Writer) Seal() (int, error) {
	w.sealMu.Lock()
	defer w.sealMu.Unlock()
	// Capture the delta prefix (slice headers and length) under the
	// lock: the header fields themselves are rewritten by concurrent
	// appends, and only the captured prefix is immutable.
	w.mu.RLock()
	d := w.delta
	n := len(d.trajs)
	trajs := d.trajs[:n:n]
	var times [][]int64
	if w.temporal {
		times = d.times[:n:n]
	}
	w.mu.RUnlock()
	if n == 0 {
		return 0, nil
	}
	sh, err := buildShard(trajs, times, w.opts)
	if err != nil {
		return 0, err
	}
	// Append to the shard set current at the swap, not the one seen
	// before the build: a compaction may have replaced shards meanwhile,
	// and splicing onto the stale set would silently undo it.
	w.mu.Lock()
	defer w.mu.Unlock()
	next, err := w.sealed.spliced(len(w.sealed.shards), len(w.sealed.shards), sh)
	if err != nil {
		return 0, err
	}
	w.sealed = next
	w.delta = d.tail(n)
	return n, nil
}

// Close does nothing: a Writer runs no background work to stop.
//
// Deprecated: there is nothing to close.
func (w *Writer) Close() {}

// view captures a consistent (sealed, delta) pair. The delta is a copy
// of the live one taken under the read lock: its slice headers pin the
// published prefix, and concurrent appends only ever write past it.
// It is nil while the delta is empty.
func (w *Writer) view() (*Index, *deltaShard) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.delta.trajs) == 0 {
		return w.sealed, nil
	}
	snap := *w.delta
	return w.sealed, &snap
}

// Search executes a Query over the union of sealed shards and the
// live delta, planned and located shard by shard like Index.Search: the
// delta is one more unit after the last shard (brute-force scanned,
// summary-pruned under intervals, its width unknown until scanned),
// and hits stream in canonical (Trajectory, Offset) order — the
// delta's IDs follow the sealed ones. Results reflect a
// consistent snapshot taken at call time; appends that land later are
// not seen by an already-running iteration. Interval queries require a
// temporal writer.
func (w *Writer) Search(ctx context.Context, q Query) (*Results, error) {
	if q.Interval != nil && !w.temporal {
		return nil, ErrNoTimestamps
	}
	ix, snap := w.view()
	return runSearch(ctx, q, ix, snap)
}

// NumTrajectories returns the total trajectory count: sealed plus
// delta.
func (w *Writer) NumTrajectories() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.delta.base + len(w.delta.trajs)
}

// SealedTrajectories returns the number of trajectories living in
// compressed shards.
func (w *Writer) SealedTrajectories() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.delta.base
}

// DeltaTrajectories returns the number of trajectories still in the
// uncompressed delta.
func (w *Writer) DeltaTrajectories() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.delta.trajs)
}

// Snapshot returns the current sealed index — temporal exactly when
// the writer is, so Save writes its timestamps — or nil while nothing
// has been sealed. The returned index is immutable: safe to Save
// concurrently with further appends and seals.
func (w *Writer) Snapshot() *Index {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if len(w.sealed.shards) == 0 {
		return nil
	}
	return w.sealed
}

// Stats reports the sealed index's breakdown with Trajectories
// covering the delta too (the delta's rows are uncompressed and
// contribute nothing to the size fields).
func (w *Writer) Stats() Stats {
	w.mu.RLock()
	ix := w.sealed
	deltaN := len(w.delta.trajs)
	w.mu.RUnlock()
	s := ix.Stats()
	s.Trajectories += deltaN
	return s
}

// Trajectory reconstructs trajectory id — decompressed from a sealed
// shard, or copied out of the delta; an out-of-range id is
// ErrOutOfRange.
func (w *Writer) Trajectory(id int) ([]uint32, error) {
	return w.SubPath(id, 0, w.TrajectoryLen(id))
}

// TrajectoryLen returns the edge count of trajectory id, or -1 when
// id is out of range.
func (w *Writer) TrajectoryLen(id int) int {
	ix, snap := w.view()
	switch {
	case id < ix.NumTrajectories():
		return ix.TrajectoryLen(id)
	case snap == nil || id >= snap.base+snap.len():
		return -1
	}
	return len(snap.trajs[id-snap.base])
}

// SubPath extracts edges [from, to) of trajectory id; an out-of-range
// id or slice is ErrOutOfRange.
func (w *Writer) SubPath(id, from, to int) ([]uint32, error) {
	ix, snap := w.view()
	sealed := ix.NumTrajectories()
	total := sealed
	if snap != nil {
		total += snap.len()
	}
	switch {
	case id < 0 || id >= total:
		return nil, errTrajectoryRange(id, total)
	case id < sealed:
		return ix.SubPath(id, from, to)
	}
	row := snap.trajs[id-snap.base]
	if err := checkSlice(from, to, len(row)); err != nil {
		return nil, err
	}
	out := make([]uint32, to-from)
	copy(out, row[from:to])
	return out, nil
}
