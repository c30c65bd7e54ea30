package engine

import (
	"errors"

	"cinct"
)

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
// previous index of that name (ended first, so the name answers
// ErrNotFound until the new file serves). The file's v3 header decides
// whether the index is temporal; its name does not matter. A file in an
// older format fails with cinct.ErrLegacyFormat.
func (e *Engine) Load(name, path string) error {
	return e.open(&entry{name: name, path: path})
}

// open loads the entry's file and publishes it in the catalog. An
// entry already serving the name is ended first, before the file and
// the log are read: its persist could otherwise rewrite the file after
// the read, and its appends would write the log's active segment beside
// the new handle, under the same IDs. Until the install the name
// answers ErrNotFound; if the open fails it stays so until a Load
// succeeds. Opens run one at a time, so two Loads of one name never
// hold its log at once.
func (e *Engine) open(en *entry) error {
	e.openMu.Lock()
	defer e.openMu.Unlock()
	if old, err := e.cat.get(en.name); err == nil {
		if _, _, err := old.markClosed(); err != nil {
			e.logf("%v", err)
		}
	}
	ix, err := en.loadFromFile()
	if err != nil {
		return err
	}
	en.bind(e.cat.bindings.Add(1), ix, 0, 0)
	// WAL before install: once the entry is reachable through the
	// catalog an Append must find a live log handle, or its batch
	// would be acknowledged without a record.
	en.ingestMu.Lock()
	err = e.openWAL(en)
	en.ingestMu.Unlock()
	if err != nil {
		return err
	}
	if err := e.cat.install(en); err != nil {
		e.logf("%v", err)
	}
	return nil
}

// Reload re-reads name's file, atomically swaps the new index in, and
// returns the new generation (so concurrent reloaders can each pair
// their call with the swap it produced). In-flight queries finish
// against the old generation; cached results of the old generation
// become unreachable at once (see queryCache). The old index stays
// valid until its last query returns. Reloads of one entry run one at
// a time, and never between a persist's rename and its WAL retire.
func (e *Engine) Reload(name string) (uint64, error) {
	en, err := e.cat.get(name)
	if err != nil {
		return 0, err
	}
	// No persist runs until the WAL reopens: the read holds every retired row.
	en.persistMu.Lock()
	defer en.persistMu.Unlock()
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
	gen, err := en.swap(e.cat.bindings.Add(1), ix)
	if err != nil {
		en.ingestMu.Unlock()
		return 0, err
	}
	// The swap replaced the writer (and with it the unsealed delta),
	// but the WAL still holds those rows: reopen and replay it against
	// the freshly loaded file so a reload loses nothing that was
	// acknowledged.
	err = e.openWAL(en)
	en.ingestMu.Unlock()
	return gen, err
}

// Close unregisters name, ends its standing queries, and releases its
// index for collection once in-flight queries drain. A persist in
// flight finishes first, and a later one is refused; the WAL is synced
// and closed, its unsealed rows left to replay on the next open. Every
// later call on name fails with ErrNotFound until it is loaded again.
// The error is ErrNotFound, or a failed final WAL sync.
func (e *Engine) Close(name string) error {
	e.subs.closeIndex(name)
	return e.cat.remove(name)
}

// CloseAll closes every index, logging a failed final WAL sync.
func (e *Engine) CloseAll() {
	for _, name := range e.cat.names() {
		// ErrNotFound is a raced removal, which is fine.
		if err := e.Close(name); err != nil && !errors.Is(err, ErrNotFound) {
			e.logf("%v", err)
		}
	}
}

// Shutdown stops the engine's background work — threshold seals, each
// in-flight one cutting its compaction short between rounds and
// finishing its persistence first — then ends every standing-query
// subscription (their streams close, expiry timers stop) and closes
// every index through CloseAll, the way Close ends one: each WAL is
// synced and closed, its unsealed rows left to replay on the next open.
// Call it after the serving layer has drained. Afterwards every
// call on an index fails with ErrNotFound, exactly as after CloseAll,
// so no append is acknowledged that the log does not hold.
func (e *Engine) Shutdown() {
	e.bgMu.Lock()
	e.stopped = true
	e.bgMu.Unlock()
	e.bg.Wait()
	e.subs.closeAll()
	e.CloseAll()
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
	// Mapped reports that the index is served zero-copy from its
	// file's memory mapping. It is false where the host cannot map, and
	// once compaction has rewritten every mapped shard in memory (until
	// the next Reload).
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
		Temporal:   v.w.Temporal(),
		Path:       en.path,
		Generation: v.gen,
		Epoch:      v.epoch,
		Delta:      v.w.DeltaTrajectories(),
		Stats:      v.w.Stats(),
	}
	en.mu.RLock()
	wl := en.wal
	en.mu.RUnlock()
	if wl != nil {
		info.WALSegments, info.WALBytes = wl.Stats()
	}
	if sealed := v.w.Snapshot(); sealed != nil {
		info.Mapped = sealed.Mapped()
		info.TimestampBits = sealed.TimestampBits()
	}
	return info, nil
}
