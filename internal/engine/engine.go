package engine

import (
	"runtime"
	"sync"
	"time"
)

// Options tunes an Engine. The zero value picks sensible defaults.
type Options struct {
	// Workers bounds the number of queries and extractions doing index
	// work at once: each holds one slot, and a query runs on one
	// goroutine while its stream does index work. Seals and
	// compactions run outside it. Queries beyond it wait (or fail when
	// their context expires first). 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheEntries is the LRU capacity for Search result pages across
	// all indexes. 0 means 4096; negative disables caching.
	CacheEntries int
	// SealThreshold makes the engine start a background seal whenever
	// an Append leaves an index's delta holding at least this many
	// trajectories. Like Seal, it merges the sealed shards back to the
	// library's default compaction policy and persists the result. 0
	// means 4096; negative disables threshold sealing (Seal must be
	// called explicitly).
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
	// SlowQuery logs every query whose wall time reaches this duration
	// through Logf, with its full cinct.QueryStats cost account. 0
	// disables the slow-query log.
	SlowQuery time.Duration
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

// Engine serves queries over a catalog of named index files. It is the
// single concurrency point of the system: every transport (HTTP
// daemon, CLI, tests) funnels through the same bounded worker pool and
// shares the same result cache, so answers and load behavior cannot
// diverge between in-process and remote callers.
type Engine struct {
	cat       *catalog
	cache     *queryCache
	sem       chan struct{}
	sealAt    int
	logf      func(format string, args ...any)
	metrics   *engineMetrics
	slowQuery time.Duration

	roadnets *roadnetCatalog
	subs     *subRegistry

	walOpts WALOptions
	// openMu serializes open (Load, OpenDir): see open.
	openMu sync.Mutex
	// Background work — threshold seals — is the engine's, started
	// only through goBackground: Shutdown sets stopped (so nothing new
	// starts, and a running seal's compaction stops between rounds) and
	// waits bg out.
	bgMu    sync.Mutex
	stopped bool
	bg      sync.WaitGroup
}

// New creates an empty engine; load indexes with OpenDir or Load.
func New(opts Options) *Engine {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	e := &Engine{
		cat:       newCatalog(),
		cache:     newQueryCache(opts.cacheEntries()),
		sem:       make(chan struct{}, opts.workers()),
		sealAt:    opts.sealThreshold(),
		logf:      logf,
		slowQuery: opts.SlowQuery,
		roadnets:  newRoadnetCatalog(),
		subs:      newSubRegistry(),
		walOpts:   opts.WAL,
	}
	e.metrics = newEngineMetrics(e)
	return e
}

// goBackground runs fn on a goroutine Shutdown waits for, unless
// Shutdown has already begun; it reports whether fn was started. Add
// happens under bgMu with stopped unset, so it never races Shutdown's
// Wait.
func (e *Engine) goBackground(fn func()) bool {
	e.bgMu.Lock()
	defer e.bgMu.Unlock()
	if e.stopped {
		return false
	}
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		fn()
	}()
	return true
}

// stopping reports whether Shutdown has begun.
func (e *Engine) stopping() bool {
	e.bgMu.Lock()
	defer e.bgMu.Unlock()
	return e.stopped
}
