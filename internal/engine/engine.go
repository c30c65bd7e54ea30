package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cinct"
	"cinct/internal/metrics"
	"cinct/internal/wal"
)

// Options tunes an Engine. The zero value picks sensible defaults.
type Options struct {
	// Workers bounds the number of wavelet-tree traversals in flight
	// at once; queries beyond it wait (or fail when their context
	// expires first). 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheEntries is the LRU capacity for Search result pages across
	// all indexes. 0 means 4096; negative disables caching.
	CacheEntries int
	// SealThreshold starts a background seal whenever an Append leaves
	// an index's delta holding at least this many trajectories. 0
	// means 4096; negative disables auto-sealing (Seal must be called
	// explicitly).
	SealThreshold int
	// Logf, when non-nil, receives operational log lines (background
	// seals, persistence failures). nil discards them.
	Logf func(format string, args ...any)
	// Mmap has no effect: the engine always opens index files with
	// cinct.OpenMapped, which serves them from a memory mapping (open
	// is O(metadata), resident memory is the pages queries touch) and
	// falls back to one aligned read where mapping fails.
	//
	// Deprecated: every engine maps.
	Mmap bool
	// WAL enables the ingestion write-ahead log: appended batches are
	// framed, CRC'd and written to per-index segment files before the
	// append is acknowledged, and replayed into the delta when the
	// index is opened — so unsealed rows survive a crash. Zero value
	// disables it.
	WAL WALOptions
	// Compaction configures tiered background compaction of sealed
	// shards, bounding query fan-out under long-lived ingestion. Zero
	// value disables the background compactor; Engine.Compact still
	// works on demand.
	Compaction CompactionOptions
	// Metrics is the registry the engine records its operational series
	// into (query latency and cost, cache hit/miss, pool occupancy and
	// wait, seal/compaction durations, WAL footprint). nil creates a
	// private registry, reachable through Engine.Metrics.
	Metrics *metrics.Registry
	// SlowQuery logs every query whose wall time reaches this duration
	// through Logf, with its full cinct.QueryStats cost account. 0
	// disables the slow-query log.
	SlowQuery time.Duration
	// ShedCost enables cost-aware admission control: when every worker
	// slot is busy, a query whose estimated cost (see estimateCost)
	// reaches this threshold fails immediately with ErrOverloaded
	// instead of queueing. 0 disables shedding — saturated queries
	// queue, the pre-admission-control behavior.
	ShedCost int64
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) cacheEntries() int {
	switch {
	case o.CacheEntries > 0:
		return o.CacheEntries
	case o.CacheEntries < 0:
		return 0
	}
	return 4096
}

func (o Options) sealThreshold() int {
	switch {
	case o.SealThreshold > 0:
		return o.SealThreshold
	case o.SealThreshold < 0:
		return 0
	}
	return 4096
}

// Engine serves queries over a Catalog of named indexes. It is the
// single concurrency point of the system: every transport (HTTP
// daemon, CLI, tests) funnels through the same bounded worker pool and
// shares the same result cache, so answers and load behavior cannot
// diverge between in-process and remote callers.
type Engine struct {
	cat       *Catalog
	cache     *queryCache
	sem       chan struct{}
	sealAt    int
	logf      func(format string, args ...any)
	metrics   *engineMetrics
	slowQuery time.Duration
	shedCost  int64

	roadnets *roadnetCatalog
	subs     *subRegistry

	walOpts    WALOptions
	compaction CompactionOptions
	// Background-compactor lifecycle: stop closes done (once), bg
	// waits the loop out. done is nil when the compactor is disabled.
	done     chan struct{}
	stopOnce sync.Once
	bg       sync.WaitGroup
}

// New creates an empty engine; load indexes with OpenDir, Load or
// Register.
func New(opts Options) *Engine {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &Engine{
		cat:        newCatalog(),
		cache:      newQueryCache(opts.cacheEntries()),
		sem:        make(chan struct{}, opts.workers()),
		sealAt:     opts.sealThreshold(),
		logf:       logf,
		slowQuery:  opts.SlowQuery,
		shedCost:   opts.ShedCost,
		roadnets:   newRoadnetCatalog(),
		subs:       newSubRegistry(),
		walOpts:    opts.WAL,
		compaction: opts.Compaction,
	}
	e.metrics = newEngineMetrics(opts.Metrics, e)
	if e.compaction.Interval > 0 {
		e.done = make(chan struct{})
		e.bg.Add(1)
		go e.compactLoop()
	}
	return e
}

// OpenDir loads every index file under dir (*.cinct and *.tcinct,
// each spatial or temporal as its header says), registered under its
// base filename. Returns the loaded names; on the first file that
// fails to load, the error names it.
func (e *Engine) OpenDir(dir string) ([]string, error) {
	entries, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, en := range entries {
		if err := e.open(en); err != nil {
			return names, err
		}
		names = append(names, en.name)
	}
	return names, nil
}

// Load reads one index file and registers it under name, replacing any
// previous index of that name. The file's v3 header decides whether
// the index is temporal; its name does not matter. A pre-v3 file fails
// with cinct.ErrLegacyFormat.
func (e *Engine) Load(name, path string) error {
	return e.open(&entry{name: name, path: path})
}

// open loads the entry's file and publishes it in the catalog.
func (e *Engine) open(en *entry) error {
	ix, err := en.loadFromFile()
	if err != nil {
		return err
	}
	en.gen, en.epoch = 1, 1
	en.ix, en.sig = ix, indexSig(ix)
	// WAL before install: once the entry is reachable through the
	// catalog an Append must find a live log handle, or its batch
	// would be acknowledged without a record.
	if err := e.openWAL(en); err != nil {
		return err
	}
	e.cat.install(en)
	return nil
}

// Register publishes an in-memory index, spatial or temporal, under
// name (no backing file; Reload will fail with ErrNoFile).
func (e *Engine) Register(name string, ix *cinct.Index) {
	e.cat.install(&entry{name: name, gen: 1, epoch: 1, sig: indexSig(ix), ix: ix})
}

// Reload re-reads name's backing file, atomically swaps the new index
// in, and returns the new generation (so concurrent reloaders can each
// pair their call with the swap it produced). In-flight queries finish
// against the old generation; cached results of the old generation
// become unreachable at once (see queryCache). The old index stays
// valid until its last query returns.
func (e *Engine) Reload(name string) (uint64, error) {
	en, err := e.cat.get(name)
	if err != nil {
		return 0, err
	}
	if en.path == "" {
		return 0, fmt.Errorf("%w: %q", ErrNoFile, name)
	}
	en.loadMu.Lock()
	defer en.loadMu.Unlock()
	ix, err := en.loadFromFile()
	if err != nil {
		return 0, err
	}
	// ingestMu is held from the swap through the WAL reopen: a
	// concurrent Append either completes (memtable write + log record)
	// against the old binding before the swap, or waits and re-checks,
	// finding the fresh writer and the fresh log together. Without
	// this, an append could land in a writer the swap discards (acked
	// rows silently dropped) or be acknowledged while en.wal is nil
	// (acked rows never logged).
	en.ingestMu.Lock()
	gen, err := en.swap(ix)
	if err != nil {
		en.ingestMu.Unlock()
		return 0, err
	}
	// The swap discarded any live writer (and with it the unsealed
	// delta), but the WAL still holds those rows: reopen and replay it
	// against the freshly loaded file so a reload loses nothing that
	// was acknowledged.
	werr := e.openWALLocked(en)
	en.ingestMu.Unlock()
	if werr != nil {
		return gen, werr
	}
	return gen, nil
}

// Close unregisters name, ends its standing queries, and releases its
// index for collection once in-flight queries drain.
func (e *Engine) Close(name string) error {
	e.subs.closeIndex(name)
	return e.cat.remove(name)
}

// CloseAll closes every index.
func (e *Engine) CloseAll() {
	for _, name := range e.cat.names() {
		e.subs.closeIndex(name)
		e.cat.remove(name) //nolint:errcheck // raced removals are fine
	}
}

// Names lists the registered indexes, sorted.
func (e *Engine) Names() []string { return e.cat.names() }

// Info describes one catalog entry.
type Info struct {
	Name       string `json:"name"`
	Temporal   bool   `json:"temporal"`
	Path       string `json:"path,omitempty"`
	Generation uint64 `json:"generation"`
	// Epoch identifies the trajectory-ID space: it advances on Reload
	// and replacement (invalidating cursors) but not on Append/Seal.
	Epoch uint64 `json:"epoch"`
	// Delta is the number of appended trajectories still in the
	// uncompressed delta (live-ingestion entries only).
	Delta int `json:"deltaTrajectories,omitempty"`
	// TimestampBits is the compressed temporal store size (temporal
	// indexes only).
	TimestampBits int `json:"timestampBits,omitempty"`
	// Mapped reports that the index is served zero-copy from an
	// mmap'd v3 container rather than from a heap copy (an index
	// registered from memory, or a host that cannot map).
	Mapped bool `json:"mapped,omitempty"`
	// WALSegments / WALBytes describe the entry's write-ahead log
	// footprint (entries running with Options.WAL only).
	WALSegments int         `json:"walSegments,omitempty"`
	WALBytes    int64       `json:"walBytes,omitempty"`
	Stats       cinct.Stats `json:"stats"`
}

// Info reports metadata and size statistics for name.
func (e *Engine) Info(name string) (Info, error) {
	// One lookup: snapshot and path must come from the same entry or a
	// concurrent replacement could mix two indexes' metadata.
	en, err := e.cat.get(name)
	if err != nil {
		return Info{}, err
	}
	v, err := en.snapshot()
	if err != nil {
		return Info{}, err
	}
	info := Info{
		Name:       v.name,
		Temporal:   v.ix.Temporal(),
		Path:       en.path,
		Generation: v.gen,
		Epoch:      v.epoch,
	}
	en.mu.RLock()
	wl := en.wal
	en.mu.RUnlock()
	if wl != nil {
		info.WALSegments, info.WALBytes = wl.Stats()
	}
	info.Stats = v.q.Stats()
	sealed := v.ix
	if v.w != nil {
		info.Delta = v.w.DeltaTrajectories()
		if ix := v.w.Snapshot(); ix != nil {
			sealed = ix
		}
	}
	info.Mapped = sealed.Mapped()
	info.TimestampBits = sealed.TimestampBits()
	return info, nil
}

// AppendResult summarizes one accepted ingest batch.
type AppendResult struct {
	// FirstID is the global trajectory ID assigned to the batch's
	// first row; rows get consecutive IDs.
	FirstID int `json:"firstId"`
	// Appended is the number of rows accepted (the whole batch — a
	// batch is atomic).
	Appended int `json:"appended"`
	// Delta is the number of trajectories in the uncompressed delta
	// after the batch landed.
	Delta int `json:"deltaTrajectories"`
	// Generation is the index generation after the batch; every cached
	// result of earlier generations is orphaned.
	Generation uint64 `json:"generation"`
}

// Append ingests a batch of trajectories into index name, creating
// the live writer on first use (the index's current state becomes the
// writer's sealed base). The batch is atomic and immediately
// queryable; the generation bump orphans every cached result computed
// before it. times must be nil for a spatial index and row-aligned
// for a temporal one. When the delta crosses the engine's seal
// threshold a background seal compacts it (and persists the sealed
// state for file-backed entries) without blocking queries or appends.
func (e *Engine) Append(ctx context.Context, name string, trajs [][]uint32, times [][]int64) (AppendResult, error) {
	if err := ctx.Err(); err != nil {
		return AppendResult{}, err
	}
	en, err := e.cat.get(name)
	if err != nil {
		return AppendResult{}, err
	}
	// ingestMu keeps (ID assignment, WAL record) atomic across
	// concurrent appenders so the log replays in global-ID order, and
	// it is the same lock Reload holds across (index swap, WAL reopen)
	// — so the writer and log handle read under it are always a
	// matched pair, never an orphaned writer or a log mid-replay. The
	// memtable write comes first — it owns ID assignment — and the
	// batch is only acknowledged once its WAL record's write(2) has
	// completed; a failure in between leaves an unacknowledged batch
	// in the delta, an error on the wire, and the entry poisoned (see
	// walErr): the delta now holds IDs the log lacks, so any further
	// logged append would write a gapped FirstID that a later replay
	// must refuse. A Reload rebuilds the delta from the log and lifts
	// the poison.
	for {
		w, err := e.writerFor(en)
		if err != nil {
			return AppendResult{}, err
		}
		en.ingestMu.Lock()
		en.mu.RLock()
		wl, cur := en.wal, en.w
		en.mu.RUnlock()
		if cur != w {
			// A Reload swapped the binding between writerFor and the
			// lock: rows appended to the orphaned writer would be
			// acknowledged and then silently dropped. Retry against
			// the fresh binding.
			en.ingestMu.Unlock()
			continue
		}
		if perr := en.walErr; perr != nil {
			en.ingestMu.Unlock()
			return AppendResult{}, perr
		}
		first, gen, err := en.appendBatch(w, trajs, times)
		if err != nil {
			en.ingestMu.Unlock()
			return AppendResult{}, err
		}
		if wl != nil {
			if werr := wl.Append(wal.Batch{FirstID: first, Trajs: trajs, Times: times}); werr != nil {
				en.walErr = fmt.Errorf("engine: %q write-ahead log: %w (appends disabled until reload: the failed batch holds IDs the log lacks)", en.name, werr)
				perr := en.walErr
				en.ingestMu.Unlock()
				return AppendResult{}, perr
			}
		}
		en.ingestMu.Unlock()
		e.metrics.appendRows.Add(int64(len(trajs)))
		return AppendResult{FirstID: first, Appended: len(trajs), Delta: w.DeltaTrajectories(), Generation: gen}, nil
	}
}

// writerFor returns the entry's live writer, creating it on first use
// with the engine's seal threshold and the persistence hook.
func (e *Engine) writerFor(en *entry) (*cinct.Writer, error) {
	en.mu.Lock()
	defer en.mu.Unlock()
	if en.closed {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, en.name)
	}
	if en.w != nil {
		return en.w, nil
	}
	cfg := cinct.WriterConfig{
		SealThreshold: e.sealAt,
		OnSeal:        func(n int) { e.afterSeal(en, n) },
		Logf:          e.logf,
		// A background seal that fails before reaching OnSeal (the
		// compaction build itself, not persistence) must not vanish:
		// record it where the next explicit Seal will surface it.
		OnError: func(op string, err error) {
			en.mu.Lock()
			en.sealErr = fmt.Errorf("engine: %q background %s: %w", en.name, op, err)
			en.mu.Unlock()
		},
		// Standing queries: every landed row is tested against the
		// index's registered predicates on the appending goroutine,
		// right after the rows become visible to Search.
		OnAppend: func(first int, trajs [][]uint32, times [][]int64) {
			e.publishAppend(en.name, first, trajs, times)
		},
	}
	w, err := cinct.NewWriterAt(en.ix, cfg)
	if err != nil {
		return nil, err
	}
	en.w = w
	return w, nil
}

// SealResult summarizes one compaction.
type SealResult struct {
	// Sealed is the number of delta trajectories compacted (0 when the
	// delta was already empty).
	Sealed int `json:"sealed"`
	// Delta is the number of trajectories still unsealed afterwards
	// (rows appended while the seal ran).
	Delta int `json:"deltaTrajectories"`
	// Generation is the entry generation after the seal. Sealing does
	// not bump it: query answers are unchanged by compaction, so
	// cached results stay valid.
	Generation uint64 `json:"generation"`
}

// Seal compacts index name's delta into a compressed shard and, for
// file-backed entries, persists the new sealed state to the backing
// file (atomic tmp+rename). Queries and appends proceed throughout.
// An index with no live writer (nothing ever appended) seals
// trivially. A compaction whose persistence failed — disk error, or a
// concurrent Reload that discarded the writer mid-seal — returns that
// error rather than reporting durable success.
func (e *Engine) Seal(ctx context.Context, name string) (SealResult, error) {
	if err := ctx.Err(); err != nil {
		return SealResult{}, err
	}
	en, err := e.cat.get(name)
	if err != nil {
		return SealResult{}, err
	}
	v, err := en.snapshot()
	if err != nil {
		return SealResult{}, err
	}
	if v.w == nil {
		return SealResult{Generation: v.gen}, nil
	}
	t0 := time.Now()
	n, err := v.w.Seal() // afterSeal (the OnSeal hook) persists
	e.metrics.sealSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		return SealResult{}, err
	}
	en.mu.RLock()
	gen, perr := en.gen, en.sealErr
	en.mu.RUnlock()
	res := SealResult{Sealed: n, Delta: v.w.DeltaTrajectories(), Generation: gen}
	if perr != nil {
		// Retry persistence — this covers both a failure during this
		// seal and one left behind by an earlier background seal — and
		// report the outcome instead of a silently non-durable success.
		e.afterSeal(en, n)
		en.mu.RLock()
		perr = en.sealErr
		en.mu.RUnlock()
		if perr != nil {
			return res, perr
		}
	}
	return res, nil
}

// afterSeal is every writer's OnSeal hook: it logs the compaction and
// persists the sealed state for file-backed entries, recording the
// outcome in entry.sealErr so Engine.Seal can surface it. It
// deliberately leaves the generation alone — a seal changes the
// representation, not the answers, so cached pages and outstanding
// cursors both stay valid.
func (e *Engine) afterSeal(en *entry, sealed int) {
	e.logf("engine: %q sealed %d trajectories", en.name, sealed)
	e.persistEntry(en, "seal", sealed)
}

// persistEntry writes the entry's sealed state to its backing file
// (tmp+rename) after a seal or compaction changed it, retires WAL
// segments wholly covered by the persisted rows, and records the
// outcome in entry.sealErr so Engine.Seal / Engine.Compact can
// surface it.
func (e *Engine) persistEntry(en *entry, what string, rows int) {
	en.persistMu.Lock()
	defer en.persistMu.Unlock()
	en.mu.RLock()
	closed, path, w, wl := en.closed, en.path, en.w, en.wal
	en.mu.RUnlock()
	var err error
	switch {
	case closed || w == nil:
		// A Reload or Close raced the operation and discarded the
		// writer: the compacted rows exist only in the orphaned writer
		// and will not reach disk.
		err = fmt.Errorf("engine: %q was reloaded or closed during the %s; %d trajectories were discarded",
			en.name, what, rows)
	case path == "":
		// Memory-registered entry: nothing to persist, by design.
	default:
		sealedRows, perr := persistWriter(w, path)
		if perr != nil {
			err = fmt.Errorf("engine: persisting %q after %s: %w", en.name, what, perr)
		} else if wl != nil {
			// Every row below sealedRows is durable in the index file;
			// segments holding only such rows are dead weight.
			if rerr := wl.Retire(sealedRows); rerr != nil {
				e.logf("engine: retiring %q wal segments: %v", en.name, rerr)
			}
		}
	}
	if err != nil {
		e.logf("%v", err)
	}
	en.mu.Lock()
	en.sealErr = err
	en.mu.Unlock()
}

// persistWriter saves the writer's sealed snapshot to path via a
// temporary file, fsync, and an atomic rename (with the parent
// directory fsynced after it), so readers of the data dir never
// observe a torn index file and a power failure cannot undo a
// persistence the caller already acted on. The full fsync discipline
// matters because persistEntry retires WAL segments the moment this
// function returns success: the renamed file must be durable before
// the log stops covering its rows. It returns the number of
// trajectories the persisted file holds — the WAL retirement
// watermark.
func persistWriter(w *cinct.Writer, path string) (rows int, err error) {
	ix := w.Snapshot()
	if ix == nil {
		return 0, nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	_, err = ix.Save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // best-effort cleanup
		return 0, err
	}
	return ix.NumTrajectories(), syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-renamed file survives power
// loss — without it the rename itself may not be on disk when the WAL
// segments covering the file's rows are already gone.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// CacheStats reports the shared result cache's lifetime counters.
func (e *Engine) CacheStats() (hits, misses uint64, entries int) {
	return e.cache.stats()
}

// Engine cursors are the library's opaque tokens wrapped in an
// envelope binding them to the identity of the index binding they were
// minted against: the in-process epoch plus the load-time signature
// (see indexSig). The library token positions into a result sequence
// by (trajectory, offset); that position keeps meaning across Append
// and Seal (IDs only ever extend) but not across Reload, where the
// file may hold renumbered data and a resume would return silently
// wrong pages. The epoch catches reloads within a process; the
// signature catches the file changing across a restart, where every
// epoch resets to 1 and would falsely validate.
//
// 0xE2, not 1: the library's own tokens start with their version byte
// 1, and the envelope byte must not collide with them or a bare
// library token would "unwrap" into garbage instead of failing as
// ErrBadCursor. (0xE1 was the pre-signature envelope; changing the
// byte makes old tokens fail as bad cursors rather than misparse.)
const engineCursorVersion = 0xE2

// wrapCursor envelopes a library cursor token with the identity it was
// minted under. Empty tokens (exhausted streams) stay empty.
func wrapCursor(epoch, sig uint64, token string) string {
	if token == "" {
		return ""
	}
	b := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(token))
	b = append(b, engineCursorVersion)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, sig)
	b = append(b, token...)
	return base64.RawURLEncoding.EncodeToString(b)
}

// unwrapCursor decodes an engine cursor envelope back into the inner
// library token and its minting identity. Malformed envelopes
// (including bare library tokens, which never leave the engine) fail
// with cinct.ErrBadCursor; shape validation of the inner token stays
// with the library.
func unwrapCursor(s string) (epoch, sig uint64, token string, err error) {
	raw, derr := base64.RawURLEncoding.DecodeString(s)
	if derr != nil || len(raw) < 2 || raw[0] != engineCursorVersion {
		return 0, 0, "", fmt.Errorf("%w: not an engine cursor", cinct.ErrBadCursor)
	}
	epoch, n := binary.Uvarint(raw[1:])
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: malformed engine cursor", cinct.ErrBadCursor)
	}
	sig, m := binary.Uvarint(raw[1+n:])
	if m <= 0 || len(raw) == 1+n+m {
		// An envelope with no inner token would silently restart the
		// query from page one instead of resuming it.
		return 0, 0, "", fmt.Errorf("%w: malformed engine cursor", cinct.ErrBadCursor)
	}
	return epoch, sig, string(raw[1+n+m:]), nil
}

// page is the materialized, immutable form of one Search run — the
// value the shared LRU holds. CountOnly pages carry only the count;
// hit pages carry the hits in canonical order plus the resume cursor
// the run ended with, in its final (enveloped) form.
type page struct {
	count  int
	hits   []cinct.Hit
	cursor string
}

// Results is the engine's streaming query handle: either a replay of a
// cached page or a live library run that accumulates into the cache as
// it is consumed. A live Results holds one engine worker slot until
// the stream is drained, fails, or Close is called — callers that may
// abandon iteration early must defer Close (draining consumers, like
// the HTTP handler, get the release for free).
// Not safe for concurrent use.
type Results struct {
	q     cinct.Query
	epoch uint64 // identity the search ran at; binds handed-out cursors
	sig   uint64
	page  *page // replay source; nil while live
	pos   int

	live *cinct.Results
	pull func() (cinct.Hit, error, bool)
	stop func()
	e    *Engine
	key  string
	held bool
	// name/start/recorded close the metrics account exactly once when
	// the live stream finishes, fails, or is abandoned via Close.
	name     string
	start    time.Time
	recorded bool
	// acc accumulates live hits for cache population; it is dropped
	// (and tooBig set) once the page exceeds maxCachedPageHits, so an
	// unbounded streaming query never materializes O(result) memory
	// server-side.
	acc    []cinct.Hit
	tooBig bool
	closed bool

	n int
	// last/hasLast track the replay position for Cursor; the live path
	// gets its cursor from the library handle instead.
	last    cinct.Hit
	hasLast bool
	err     error
}

// maxCachedPageHits bounds the size of a Search page the engine will
// hold in the shared LRU (which caps entries, not bytes). Larger
// streams still serve fine — they just recompute on the next identical
// query instead of pinning a huge slice in cache memory.
const maxCachedPageHits = 4096

// All returns the hit stream in canonical (Trajectory, Offset) order.
// Like the library iterator it may be resumed after a break; a query
// or decode failure is yielded once as the final element's error.
func (r *Results) All() iter.Seq2[cinct.Hit, error] {
	return func(yield func(cinct.Hit, error) bool) {
		if r.err != nil {
			yield(cinct.Hit{}, r.err)
			return
		}
		if r.page != nil {
			for r.pos < len(r.page.hits) {
				h := r.page.hits[r.pos]
				r.pos++
				r.n++
				r.last, r.hasLast = h, true
				if !yield(h, nil) {
					return
				}
			}
			return
		}
		if r.live == nil || r.closed {
			return
		}
		if r.pull == nil {
			r.pull, r.stop = iter.Pull2(r.live.All())
		}
		for {
			h, herr, ok, perr := r.pullOne()
			if perr != nil {
				r.fail(perr)
				yield(cinct.Hit{}, perr)
				return
			}
			if !ok {
				r.finishLive()
				return
			}
			if herr != nil {
				r.fail(herr)
				yield(cinct.Hit{}, herr)
				return
			}
			if !r.tooBig {
				r.acc = append(r.acc, h)
				if len(r.acc) > maxCachedPageHits {
					r.acc, r.tooBig = nil, true
				}
			}
			r.n++
			if !yield(h, nil) {
				return
			}
		}
	}
}

// pullOne advances the live library iterator one step, converting a
// panic over corrupt index state into ErrCorrupt (the same boundary
// contract recoverQuery gives every query).
func (r *Results) pullOne() (h cinct.Hit, herr error, ok bool, perr error) {
	defer recoverQuery(&perr)
	h, herr, ok = r.pull()
	return h, herr, ok, nil
}

// finishLive runs when the live stream ends naturally (exhausted, or
// Limit hits yielded): the accumulated page enters the shared cache —
// unless the stream outgrew maxCachedPageHits — so the next identical
// Query replays without touching the index.
func (r *Results) finishLive() {
	r.closed = true
	if !r.tooBig {
		r.e.cache.put(r.key, &page{hits: r.acc, count: len(r.acc), cursor: wrapCursor(r.epoch, r.sig, r.live.Cursor())})
	}
	r.record(nil)
	r.releaseSlot()
}

func (r *Results) fail(err error) {
	r.err = err
	r.record(err)
	r.releaseSlot()
}

// record closes the live run's metrics account (latency, cost,
// slow-query log) exactly once, whichever of finishLive, fail or Close
// gets there first.
func (r *Results) record(err error) {
	if r.recorded || r.live == nil {
		return
	}
	r.recorded = true
	r.e.recordQuery(r.name, r.q, r.start, r.live.Stats(), err)
}

func (r *Results) releaseSlot() {
	if r.stop != nil {
		r.stop()
		r.stop, r.pull = nil, nil
	}
	if r.held {
		r.held = false
		r.e.release()
	}
}

// Close releases the worker slot held by a live run whose iteration
// was abandoned before the stream ended, and ends the stream: a later
// All yields nothing (the engine's concurrency bound must not be
// bypassed by resuming a slot-less iterator). Idempotent; a no-op for
// replayed or drained Results.
func (r *Results) Close() {
	if r.live != nil {
		r.closed = true
		r.record(r.err)
	}
	r.releaseSlot()
}

// Count returns the query's count: the full occurrence count for
// CountOnly queries, otherwise the total number of hits after draining
// whatever the iterator has not yielded yet.
func (r *Results) Count() (int, error) {
	if r.q.Kind == cinct.CountOnly {
		if r.err != nil {
			return 0, r.err
		}
		return r.page.count, nil
	}
	for _, err := range r.All() {
		if err != nil {
			return r.n, err
		}
	}
	return r.n, nil
}

// Cursor returns the token that resumes the query just past the last
// hit yielded, or "" when the stream is known exhausted (or nothing
// has been yielded). Semantics mirror cinct.Results.Cursor, except
// that engine cursors carry the epoch envelope: resuming after a
// Reload fails with ErrStaleCursor instead of paging through
// renumbered data, while resuming across Append or Seal keeps
// working.
func (r *Results) Cursor() string {
	if r.err != nil {
		return ""
	}
	if r.live != nil {
		return wrapCursor(r.epoch, r.sig, r.live.Cursor())
	}
	if r.page != nil {
		if r.pos >= len(r.page.hits) {
			return r.page.cursor
		}
		if r.hasLast {
			return wrapCursor(r.epoch, r.sig, r.q.CursorAfter(r.last))
		}
	}
	return ""
}

// Search is the engine's single query entry point: every operation —
// spatial or temporal, counting, locating or listing trajectories — is
// a cinct.Query executed here, cached here, and bounded by the same
// worker pool. Results are keyed by (index, generation, SHA-256 of the
// canonical query encoding), so a Reload instantly orphans stale
// pages. Interval queries against a spatial-only index fail with
// ErrNotTemporal; descriptor violations (negative limit, unknown kind)
// fail with cinct.ErrBadQuery before any index work.
func (e *Engine) Search(ctx context.Context, name string, q cinct.Query) (*Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if q.Cursor != "" {
		epoch, sig, inner, cerr := unwrapCursor(q.Cursor)
		if cerr != nil {
			return nil, cerr
		}
		if epoch != v.epoch || sig != v.sig {
			return nil, fmt.Errorf("%w: %q changed since the cursor was issued", ErrStaleCursor, v.name)
		}
		// The library sees only its own token; the cache key is built
		// from the unwrapped form so a page is reusable whatever
		// identity envelope it arrived in.
		q.Cursor = inner
	}
	enc, err := q.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if q.Interval != nil && !v.ix.Temporal() {
		return nil, fmt.Errorf("%w: %q", ErrNotTemporal, v.name)
	}
	key := searchKey(v.name, v.gen, enc)
	start := time.Now()
	e.metrics.queries.With(kindLabel(q.Kind)).Inc()
	if val, ok := e.cache.get(key); ok {
		e.metrics.cacheHits.Inc()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, nil)
		return &Results{q: q, epoch: v.epoch, sig: v.sig, page: val.(*page)}, nil
	}
	e.metrics.cacheMisses.Inc()
	if err := e.acquire(ctx, estimateCost(q)); err != nil {
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	lr, err := func() (lr *cinct.Results, err error) {
		defer recoverQuery(&err)
		return v.q.Search(ctx, q)
	}()
	if err != nil {
		e.release()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	if q.Kind == cinct.CountOnly {
		n, cerr := lr.Count()
		e.release()
		e.recordQuery(v.name, q, start, lr.Stats(), cerr)
		if cerr != nil {
			return nil, cerr
		}
		p := &page{count: n}
		e.cache.put(key, p)
		return &Results{q: q, epoch: v.epoch, sig: v.sig, page: p}, nil
	}
	return &Results{q: q, epoch: v.epoch, sig: v.sig,
		live: lr, e: e, key: key, held: true,
		name: v.name, start: start, acc: make([]cinct.Hit, 0, 16)}, nil
}

// checkTrajectory validates a trajectory ID against the snapshot
// (including unsealed delta rows), giving a bad ID the engine's typed
// ErrOutOfRange — the error a server maps to a 4xx — before any worker
// slot is taken.
func checkTrajectory(v view, id int) error {
	if n := v.q.NumTrajectories(); id < 0 || id >= n {
		return fmt.Errorf("%w: trajectory %d not in [0,%d)", ErrOutOfRange, id, n)
	}
	return nil
}

// Trajectory reconstructs trajectory id of index name.
func (e *Engine) Trajectory(ctx context.Context, name string, id int) ([]uint32, error) {
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if err := checkTrajectory(v, id); err != nil {
		return nil, err
	}
	// Extraction cost is one trajectory's length — never sheddable.
	if err := e.acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer e.release()
	return v.q.Trajectory(id)
}

// SubPath extracts edges [from, to) of trajectory id of index name.
func (e *Engine) SubPath(ctx context.Context, name string, id, from, to int) ([]uint32, error) {
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if err := checkTrajectory(v, id); err != nil {
		return nil, err
	}
	if err := e.acquire(ctx, 1); err != nil {
		return nil, err
	}
	defer e.release()
	sub, err := v.q.SubPath(id, from, to)
	if err != nil {
		if errors.Is(err, cinct.ErrNoLocate) {
			// Index capability, not bad parameters — don't blame the
			// caller's range.
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrOutOfRange, err)
	}
	return sub, nil
}

// recoverQuery converts a panic escaping a library query into a typed
// error, so corrupt in-memory state degrades a single request instead
// of crashing the serving process — the same panic-to-error contract
// checkTrajectory gives the spatial ops.
func recoverQuery(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", ErrCorrupt, r)
	}
}
