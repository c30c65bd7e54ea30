package engine

import (
	"context"
	"fmt"
	"time"

	"cinct"
	"cinct/internal/atomicfile"
	"cinct/internal/wal"
)

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

// Append ingests a batch of trajectories into index name's writer. The
// batch is atomic and immediately queryable; the generation bump
// orphans every cached result computed before it. times must be nil
// for a spatial index and row-aligned for a temporal one. When the
// delta crosses the engine's seal threshold the engine seals it in the
// background (and persists the sealed state to the index file) without
// blocking queries or appends.
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
	// it is the same lock Reload holds across (writer swap, WAL reopen)
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
	en.ingestMu.Lock()
	w, err := en.writer()
	if err == nil {
		err = en.walErr
	}
	if err != nil {
		en.ingestMu.Unlock()
		return AppendResult{}, err
	}
	en.mu.RLock()
	wl := en.wal
	en.mu.RUnlock()
	first, gen, err := e.appendBatch(en, w, trajs, times)
	if err == nil && wl != nil {
		if werr := wl.Append(wal.Batch{FirstID: first, Trajs: trajs, Times: times}); werr != nil {
			en.walErr = fmt.Errorf("engine: %q write-ahead log: %w (appends disabled until reload: the failed batch holds IDs the log lacks)", en.name, werr)
			err = en.walErr
		}
	}
	en.ingestMu.Unlock()
	if err != nil {
		return AppendResult{}, err
	}
	e.metrics.appendRows.Add(int64(len(trajs)))
	delta := w.DeltaTrajectories()
	e.sealWhenFull(en, delta)
	return AppendResult{FirstID: first, Appended: len(trajs), Delta: delta, Generation: gen}, nil
}

// sealWhenFull starts a background seal of en once its delta holds
// the engine's seal threshold, at most one per entry at a time. Its
// failures are logged; a persistence failure also stays in sealErr for
// the next Seal to retry and report.
func (e *Engine) sealWhenFull(en *entry, delta int) {
	if e.sealAt <= 0 || delta < e.sealAt || !en.sealing.CompareAndSwap(false, true) {
		return
	}
	started := e.goBackground(func() {
		defer en.sealing.Store(false)
		if _, err := e.seal(en); err != nil {
			e.logf("engine: %q background seal: %v", en.name, err)
		}
	})
	if !started {
		en.sealing.Store(false)
	}
}

// SealResult summarizes one seal: the delta cut into a shard, and the
// shard set merged back to the default compaction policy.
type SealResult struct {
	// Sealed is the number of delta trajectories sealed (0 when the
	// delta was already empty).
	Sealed int `json:"sealed"`
	// Delta is the number of trajectories still unsealed afterwards
	// (rows appended while the seal ran).
	Delta int `json:"deltaTrajectories"`
	// Generation is the entry generation after the seal. Sealing does
	// not bump it: query answers are unchanged by sealing and
	// compaction, so cached results stay valid.
	Generation uint64 `json:"generation"`
}

// Seal compresses index name's delta into a new shard, merges the
// sealed shards back to the library's default compaction policy and
// persists the new sealed state to the index file (atomic tmp+rename). Queries and appends proceed
// throughout. An empty delta seals trivially and leaves the shard set
// alone, so an index nobody appends to keeps its built layout. A seal
// whose persistence failed — disk error, or a concurrent Reload that
// replaced the writer mid-seal — returns that error rather than
// reporting durable success.
func (e *Engine) Seal(ctx context.Context, name string) (SealResult, error) {
	if err := ctx.Err(); err != nil {
		return SealResult{}, err
	}
	en, err := e.cat.get(name)
	if err != nil {
		return SealResult{}, err
	}
	return e.seal(en)
}

// seal is the one seal path, run by Seal and by the threshold trigger
// alike: it seals the entry's writer, restores the default compaction
// policy when the seal added a shard, and persists the result once. It
// deliberately leaves the generation alone — a seal changes the
// representation, not the answers, so cached pages and outstanding
// cursors both stay valid.
func (e *Engine) seal(en *entry) (SealResult, error) {
	w, err := en.writer()
	if err != nil {
		return SealResult{}, err
	}
	t0 := time.Now()
	n, err := w.Seal()
	e.metrics.sealSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		return SealResult{}, err
	}
	if n > 0 {
		e.logf("engine: %q sealed %d trajectories", en.name, n)
		_, err = e.compactRounds(en, w, false, e.stopping)
	}
	if perr := e.persistEntry(en, w, "seal", n > 0, n); err == nil {
		err = perr
	}
	en.mu.RLock()
	gen := en.gen
	en.mu.RUnlock()
	return SealResult{Sealed: n, Delta: w.DeltaTrajectories(), Generation: gen}, err
}

// persistEntry is the one step after a seal or compaction, and the one
// place an entry's file is written. It saves w's sealed snapshot when
// the operation changed w's sealed shards, or when an earlier persist
// failed (entry.sealErr), so success always means the file holds every
// sealed row. The write goes through atomicfile.Write, so readers of
// the data dir never observe a torn index file and a power failure
// cannot undo a persistence the caller already acted on. That full
// fsync matters because the WAL segments wholly covered by the
// persisted rows are retired right after it: the renamed file must be
// durable before the log stops covering its rows. The outcome is
// recorded in entry.sealErr, so a later Seal or Compact retries a
// failure.
func (e *Engine) persistEntry(en *entry, w *cinct.Writer, what string, changed bool, rows int) error {
	en.mu.RLock()
	failed := en.sealErr != nil
	en.mu.RUnlock()
	if !changed && !failed {
		return nil
	}
	en.persistMu.Lock()
	defer en.persistMu.Unlock()
	en.mu.RLock()
	closed, cur, wl := en.closed, en.w, en.wal
	en.mu.RUnlock()
	var err error
	if closed || cur != w {
		// A Reload or Close raced the operation and replaced the
		// writer: the compacted rows exist only in the orphaned writer
		// and will not reach disk.
		err = fmt.Errorf("engine: %q was reloaded or closed during the %s; %d trajectories were discarded",
			en.name, what, rows)
	} else if ix := w.Snapshot(); ix != nil {
		if _, werr := atomicfile.Write(en.path, ix.Save); werr != nil {
			err = fmt.Errorf("engine: persisting %q after %s: %w", en.name, what, werr)
		} else if wl != nil {
			// Every row the file holds is durable there; segments
			// holding only such rows are dead weight.
			if rerr := wl.Retire(ix.NumTrajectories()); rerr != nil {
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
	return err
}
