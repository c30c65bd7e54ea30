package cinct

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrNotAppendable reports an index that cannot accept a shard: the
// new shard and the existing ones disagree on locate support or on
// carrying timestamps, or the writer's build options drop locate.
var ErrNotAppendable = errors.New("cinct: index layout not appendable")

// AppendSealed compacts trajs — with their timestamp columns on a
// temporal index; times must be nil on a spatial one — into one
// additional CiNCT-compressed shard and returns a new Index serving
// the old corpus plus the new trajectories (global IDs continue past
// the existing range). ix is unchanged: indexes stay immutable, so
// concurrent readers of the old value are unaffected — swap the
// returned value in wherever the old one was published. Live,
// incrementally queryable ingestion is Writer's job; AppendSealed is
// its compaction primitive. opts nil means DefaultOptions.
func (ix *Index) AppendSealed(trajs [][]uint32, times [][]int64, opts *Options) (*Index, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if times != nil {
		if err := checkColumns(trajs, times); err != nil {
			return nil, err
		}
	}
	sh, err := buildShard(trajs, times, opts)
	if err != nil {
		return nil, err
	}
	return ix.spliced(len(ix.shards), len(ix.shards), sh)
}

// WriterConfig tunes a Writer. The zero value is valid: default build
// options, manual sealing only.
type WriterConfig struct {
	// Build tunes the compression of sealed shards (nil means
	// DefaultOptions; Shards is ignored — each seal produces exactly
	// one shard).
	Build *Options
	// SealThreshold starts a background seal whenever an Append leaves
	// the delta holding at least this many trajectories. 0 disables
	// auto-sealing (call Seal explicitly).
	SealThreshold int
	// OnSeal, when non-nil, is called after every successful seal with
	// the number of trajectories compacted — the hook serving layers
	// use to invalidate caches and persist the new sealed state. It
	// runs on the sealing goroutine with no Writer locks held.
	OnSeal func(sealed int)
	// Logf, when non-nil, receives diagnostic lines from background
	// work (auto-seal and compaction failures). nil discards them.
	Logf func(format string, args ...any)
	// OnError, when non-nil, is called whenever a background operation
	// fails, with op naming it ("seal", "compact") and the error. It
	// runs on the failing goroutine with no Writer locks held, so
	// background failures are observable instead of silently dropped.
	OnError func(op string, err error)
	// OnAppend, when non-nil, is called after every successful Append
	// or AppendBatch with the first assigned global ID and the landed
	// rows (times is nil on spatial writers). It runs on the appending
	// goroutine with no Writer locks held, after the rows are already
	// visible to Search — the hook standing-query layers use to test
	// new trajectories against registered predicates. The slices are
	// the caller's: read them during the call, do not retain or mutate.
	OnAppend func(firstID int, trajs [][]uint32, times [][]int64)
}

// Writer is the live ingestion layer: an immutable sealed index
// (growing one compressed shard per seal) plus an uncompressed
// in-memory delta shard absorbing appends. Appended trajectories are
// queryable immediately — Search merges delta hits with sealed hits
// in canonical (Trajectory, Offset) order through the same streaming
// core every index uses — and are assigned stable global IDs that
// survive sealing: a seal only moves rows from the delta
// representation to a compressed shard, never renumbers them.
//
// All methods are safe for concurrent use. Seal compacts without
// blocking readers or appenders: the build runs off-lock against a
// snapshot, and only the final generation swap takes the write lock
// (the same swap pattern the serving engine uses for reloads).
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
	opts      *Options
	temporal  bool
	threshold int
	onSeal    func(int)
	logf      func(format string, args ...any)
	onError   func(op string, err error)
	onAppend  func(firstID int, trajs [][]uint32, times [][]int64)

	// mu guards the published (sealed, delta, gen) binding. sealed is
	// an immutable value swapped wholesale (zero shards until the first
	// seal of a writer that started empty); delta is append-only with
	// the snapshot protocol described in deltaShard.
	mu     sync.RWMutex
	sealed *Index
	delta  *deltaShard
	gen    uint64

	sealMu sync.Mutex // serializes seals; never held with mu
	// compactMu serializes compaction rounds (concurrent rounds could
	// pick overlapping victim shards); never held with mu or sealMu.
	compactMu sync.Mutex
	sealing   atomic.Bool // gates background-seal spawning
	// bgMu orders background-seal spawns against Close: Add only runs
	// under bgMu with bgClosed unset, and Close sets bgClosed before
	// Wait — satisfying the WaitGroup contract that an Add from a zero
	// counter must not race a Wait.
	bgMu     sync.Mutex
	bgClosed bool
	bg       sync.WaitGroup
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
// The writer is temporal exactly when ix carries timestamps.
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
		// delta and then lose that ability at the first (possibly
		// background) seal — query behavior must not flip across a
		// compaction, so locate support is mandatory.
		return nil, fmt.Errorf("%w: writer requires SampleRate > 0", ErrNotAppendable)
	}
	if !ix.hasLoc {
		return nil, fmt.Errorf("%w: base index has no locate support but build options have SampleRate %d",
			ErrNotAppendable, opts.SampleRate)
	}
	return &Writer{
		opts:      opts,
		temporal:  temporal,
		threshold: cfg.SealThreshold,
		onSeal:    cfg.OnSeal,
		logf:      cfg.Logf,
		onError:   cfg.OnError,
		onAppend:  cfg.OnAppend,
		sealed:    ix,
		delta:     newDeltaShard(ix.NumTrajectories(), temporal),
		gen:       1,
	}, nil
}

// Temporal reports whether the writer stores timestamps.
func (w *Writer) Temporal() bool { return w.temporal }

// Generation returns the writer's data generation: it advances on
// every Append batch and every seal, so serving layers can key caches
// on it.
func (w *Writer) Generation() uint64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.gen
}

// Append adds one trajectory (with its timestamp column on a temporal
// writer; times must be nil on a spatial one) and returns its global
// ID. The trajectory is immediately visible to Search.
func (w *Writer) Append(edges []uint32, times []int64) (int, error) {
	if err := validateAppend(edges, times, w.temporal); err != nil {
		return 0, err
	}
	w.mu.Lock()
	id := w.delta.base + len(w.delta.trajs)
	w.delta.append(edges, times)
	w.gen++
	n := len(w.delta.trajs)
	w.mu.Unlock()
	if w.onAppend != nil {
		var cols [][]int64
		if w.temporal {
			cols = [][]int64{times}
		}
		w.onAppend(id, [][]uint32{edges}, cols)
	}
	w.maybeAutoSeal(n)
	return id, nil
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
	if len(trajs) == 0 {
		w.mu.RLock()
		defer w.mu.RUnlock()
		return w.delta.base + len(w.delta.trajs), nil
	}
	w.mu.Lock()
	first := w.delta.base + len(w.delta.trajs)
	for k, tr := range trajs {
		var col []int64
		if w.temporal {
			col = times[k]
		}
		w.delta.append(tr, col)
	}
	w.gen++
	n := len(w.delta.trajs)
	w.mu.Unlock()
	if w.onAppend != nil {
		w.onAppend(first, trajs, times)
	}
	w.maybeAutoSeal(n)
	return first, nil
}

// maybeAutoSeal spawns at most one background seal once the delta
// crosses the configured threshold.
func (w *Writer) maybeAutoSeal(deltaLen int) {
	if w.threshold <= 0 || deltaLen < w.threshold {
		return
	}
	if !w.sealing.CompareAndSwap(false, true) {
		return
	}
	w.bgMu.Lock()
	if w.bgClosed {
		w.bgMu.Unlock()
		w.sealing.Store(false)
		return
	}
	w.bg.Add(1)
	w.bgMu.Unlock()
	go func() {
		defer w.bg.Done()
		defer w.sealing.Store(false)
		if _, err := w.Seal(); err != nil {
			// Rows were validated on Append, but a seal can still fail
			// (corrupt state, resource exhaustion) — route it to the
			// owner instead of swallowing it; the rows stay in the
			// delta, so a later Seal retries them.
			w.reportError("seal", err)
		}
	}()
}

// reportError routes a background failure through the configured Logf
// and OnError hooks.
func (w *Writer) reportError(op string, err error) {
	if w.logf != nil {
		w.logf("cinct: background %s failed: %v", op, err)
	}
	if w.onError != nil {
		w.onError(op, err)
	}
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
	next, err := w.sealed.spliced(len(w.sealed.shards), len(w.sealed.shards), sh)
	if err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.sealed = next
	w.delta = d.tail(n)
	w.gen++
	w.mu.Unlock()
	if w.onSeal != nil {
		w.onSeal(n)
	}
	return n, nil
}

// Close stops the background sealer (later threshold crossings no
// longer spawn seals) and waits for any in-flight one to finish. It
// does not seal the remaining delta — the writer stays usable, with
// manual Seal only; call Seal first if that data should be compacted
// (and persisted by your OnSeal hook).
func (w *Writer) Close() {
	w.bgMu.Lock()
	w.bgClosed = true
	w.bgMu.Unlock()
	w.bg.Wait()
}

// view captures a consistent (sealed, delta) pair.
func (w *Writer) view() (*Index, *deltaSnap) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.sealed, w.delta.snap()
}

// Search executes a Query over the union of sealed shards and the
// live delta, planned and located in waves like Index.Search: the
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
// shard, or copied out of the delta; an out-of-range id is an error.
func (w *Writer) Trajectory(id int) ([]uint32, error) {
	return w.SubPath(id, 0, w.TrajectoryLen(id))
}

// TrajectoryLen returns the edge count of trajectory id, or -1 when
// id is out of range.
func (w *Writer) TrajectoryLen(id int) int {
	ix, snap := w.view()
	switch {
	case id < snap.base:
		return ix.TrajectoryLen(id)
	case id >= snap.base+snap.len():
		return -1
	}
	return len(snap.trajs[id-snap.base])
}

// SubPath extracts edges [from, to) of trajectory id; an out-of-range
// id or slice is an error.
func (w *Writer) SubPath(id, from, to int) ([]uint32, error) {
	ix, snap := w.view()
	switch {
	case id < 0 || id >= snap.base+snap.len():
		return nil, errTrajectoryRange(id, snap.base+snap.len())
	case id < snap.base:
		return ix.SubPath(id, from, to)
	}
	row := snap.trajs[id-snap.base]
	if from < 0 || to > len(row) || from > to {
		return nil, fmt.Errorf("cinct: SubPath[%d,%d) out of range [0,%d)", from, to, len(row))
	}
	out := make([]uint32, to-from)
	copy(out, row[from:to])
	return out, nil
}
