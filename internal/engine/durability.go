package engine

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"cinct"
	"cinct/internal/wal"
)

// WALOptions configures the ingestion write-ahead log.
type WALOptions struct {
	// Dir is the root directory holding one WAL subdirectory per
	// index. "" disables write-ahead logging.
	Dir string
	// SyncInterval is the group-commit fsync window (0 = 50ms,
	// negative = no timer). Acknowledged appends survive process death
	// regardless — the record's write(2) completes before the ack —
	// the window only bounds exposure to whole-machine failure.
	SyncInterval time.Duration
	// SyncBytes forces an fsync once this many unsynced bytes
	// accumulate (0 = 1 MiB, negative = every append).
	SyncBytes int
}

// CompactionOptions configures background tiered compaction.
type CompactionOptions struct {
	// Interval is the cadence at which the compactor sweeps every
	// live-ingestion entry for merge candidates. 0 disables the
	// background loop (Engine.Compact still compacts on demand).
	Interval time.Duration
	// Policy tunes the tiered victim selection; the zero value uses
	// the library defaults (tiers of 4, ratio 8, at most 16 shards
	// per round).
	Policy cinct.CompactionPolicy
}

// walDir returns the per-index WAL directory: one subdirectory per
// index name, so segment sequences never collide across indexes.
func (e *Engine) walDir(name string) string {
	return filepath.Join(e.walOpts.Dir, name)
}

// openWAL attaches a write-ahead log to a file-backed entry not yet
// published in the catalog (fresh loads attach the log before install,
// so no Append can ever reach an entry whose log is missing or
// mid-replay). Published entries must use openWALLocked under the
// entry's ingestMu instead.
func (e *Engine) openWAL(en *entry) error {
	en.ingestMu.Lock()
	defer en.ingestMu.Unlock()
	return e.openWALLocked(en)
}

// openWALLocked opens (recovering and truncating a torn tail),
// replays every batch the persisted index file does not already hold
// into the entry's delta, retires fully covered segments, and
// publishes the log handle for Append. A no-op when the engine runs
// without Options.WAL or the entry has no backing file.
//
// Caller holds en.ingestMu: Append reads the (writer, wal) pair under
// that lock, so holding it from dropping the old handle to publishing
// the new one leaves no window where an append is acknowledged
// without a log record or logged against a stale handle.
func (e *Engine) openWALLocked(en *entry) error {
	if e.walOpts.Dir == "" || en.path == "" {
		return nil
	}
	// Reload path: drop the previous log handle first; its segments
	// stay on disk and are re-read by the fresh Open below.
	en.mu.Lock()
	if old := en.wal; old != nil {
		old.Close() //nolint:errcheck // synced again by the reopen below
		en.wal = nil
	}
	en.mu.Unlock()
	l, err := wal.Open(e.walDir(en.name), wal.Options{
		SyncInterval: e.walOpts.SyncInterval,
		SyncBytes:    e.walOpts.SyncBytes,
	})
	if err != nil {
		return fmt.Errorf("engine: opening %q write-ahead log: %w", en.name, err)
	}
	if tr := l.Truncated(); tr > 0 {
		e.logf("engine: %q wal: truncated %d torn-tail bytes", en.name, tr)
	}
	replayed, err := e.replayWAL(en, l.Pending())
	if err != nil {
		l.Close() //nolint:errcheck // surfacing the replay error
		return err
	}
	if replayed > 0 {
		e.logf("engine: %q wal: replayed %d unsealed trajectories into the delta", en.name, replayed)
	}
	// Segments wholly below the persisted row count survived only
	// because the crash beat the retirement; drop them now.
	en.mu.RLock()
	w := en.w
	en.mu.RUnlock()
	durable := 0
	if w != nil {
		durable = w.SealedTrajectories()
	} else if v, verr := en.snapshot(); verr == nil {
		durable = v.q.NumTrajectories()
	}
	if err := l.Retire(durable); err != nil {
		e.logf("engine: retiring %q wal segments: %v", en.name, err)
	}
	en.mu.Lock()
	if en.closed {
		en.mu.Unlock()
		l.Close() //nolint:errcheck // entry raced away; nothing to attach to
		return nil
	}
	en.wal = l
	en.mu.Unlock()
	// The delta was rebuilt from the log, so the gap a failed WAL
	// append left behind (never-acknowledged delta rows with no log
	// record) is gone: lift the ingestion poison. ingestMu is held.
	en.walErr = nil
	return nil
}

// replayWAL feeds logged batches back into the entry's delta,
// skipping rows the persisted index already holds (their seal beat
// the crash) and erroring on a gap — a log that starts past the
// persisted rows means acknowledged data is simply gone, which must
// fail loudly, not serve silently short.
func (e *Engine) replayWAL(en *entry, pending []wal.Batch) (int, error) {
	replayed := 0
	for _, b := range pending {
		if len(b.Trajs) == 0 {
			continue
		}
		w, err := e.writerFor(en)
		if err != nil {
			return replayed, fmt.Errorf("engine: replaying %q write-ahead log: %w", en.name, err)
		}
		have := w.NumTrajectories()
		switch {
		case b.FirstID+len(b.Trajs) <= have:
			continue // fully sealed into the persisted file
		case b.FirstID > have:
			return replayed, fmt.Errorf("%w: %q write-ahead log resumes at row %d but the index holds %d — acknowledged rows are missing",
				ErrCorrupt, en.name, b.FirstID, have)
		}
		off := have - b.FirstID
		trajs := b.Trajs[off:]
		var times [][]int64
		if b.Times != nil {
			times = b.Times[off:]
		}
		if _, _, err := en.appendBatch(w, trajs, times); err != nil {
			return replayed, fmt.Errorf("engine: replaying %q write-ahead log: %w", en.name, err)
		}
		replayed += len(trajs)
	}
	return replayed, nil
}

// CompactResult summarizes an Engine.Compact call.
type CompactResult struct {
	// Merged is the total number of victim shards rewritten across
	// all rounds (0 when the shard set was already within policy).
	Merged int `json:"merged"`
	// Rows is the total number of trajectories re-compressed.
	Rows int `json:"rows"`
	// Rounds is the number of merge rounds run to reach the fixpoint.
	Rounds int `json:"rounds"`
	// ShardsBefore / ShardsAfter count sealed shards around the call.
	ShardsBefore int `json:"shardsBefore"`
	ShardsAfter  int `json:"shardsAfter"`
	// Generation is the entry generation. Compaction does not bump
	// it: answers are unchanged, so cached results and outstanding
	// cursors both stay valid — the same contract as Seal.
	Generation uint64 `json:"generation"`
}

// Compact merges index name's sealed shards per the engine's
// compaction policy (or down to a single shard when full is set),
// looping until the shard set reaches the policy's fixpoint, then
// persists the compacted state for file-backed entries. Queries,
// appends and seals proceed throughout; global trajectory IDs — and
// therefore outstanding cursors — are untouched.
func (e *Engine) Compact(ctx context.Context, name string, full bool) (CompactResult, error) {
	if err := ctx.Err(); err != nil {
		return CompactResult{}, err
	}
	en, err := e.cat.get(name)
	if err != nil {
		return CompactResult{}, err
	}
	w, err := e.writerFor(en)
	if err != nil {
		return CompactResult{}, err
	}
	policy := e.compaction.Policy
	if full {
		policy = cinct.FullCompaction
	}
	res := CompactResult{ShardsBefore: w.SealedShards(), ShardsAfter: w.SealedShards()}
	t0 := time.Now()
	defer func() { e.metrics.compactSec.Observe(time.Since(t0).Seconds()) }()
	for {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		r, cerr := w.Compact(policy)
		if cerr != nil {
			return res, cerr
		}
		if r.Merged == 0 {
			break
		}
		res.Merged += r.Merged
		res.Rows += r.Rows
		res.Rounds++
		res.ShardsAfter = r.ShardsAfter
	}
	if res.Merged > 0 {
		e.logf("engine: %q compacted %d shards down to %d (%d trajectories re-compressed, %d rounds)",
			name, res.ShardsBefore, res.ShardsAfter, res.Rows, res.Rounds)
		e.persistEntry(en, "compaction", res.Rows)
		en.mu.RLock()
		perr := en.sealErr
		en.mu.RUnlock()
		if perr != nil {
			return res, perr
		}
	}
	en.mu.RLock()
	res.Generation = en.gen
	en.mu.RUnlock()
	return res, nil
}

// compactLoop is the background compactor: every Interval it sweeps
// the catalog and runs one merge round per live-ingestion entry whose
// shard set is out of policy. One round per sweep keeps any single
// index from monopolizing the CPU; a backlog converges over
// successive sweeps.
func (e *Engine) compactLoop() {
	defer e.bg.Done()
	t := time.NewTicker(e.compaction.Interval)
	defer t.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
		}
		for _, name := range e.cat.names() {
			select {
			case <-e.done:
				return
			default:
			}
			e.compactOnce(name)
		}
	}
}

// compactOnce runs one policy round against name if it has a live
// writer (an index nobody appends to keeps whatever shape its file
// has — compaction exists to bound ingestion-driven fan-out).
func (e *Engine) compactOnce(name string) {
	en, err := e.cat.get(name)
	if err != nil {
		return
	}
	en.mu.RLock()
	w := en.w
	en.mu.RUnlock()
	if w == nil {
		return
	}
	t0 := time.Now()
	r, err := w.Compact(e.compaction.Policy)
	e.metrics.compactSec.Observe(time.Since(t0).Seconds())
	if err != nil {
		e.logf("engine: background compaction of %q: %v", name, err)
		return
	}
	if r.Merged == 0 {
		return
	}
	e.logf("engine: %q compacted shards [%d,%d) — %d trajectories, %d shards left",
		name, r.Lo, r.Hi, r.Rows, r.ShardsAfter)
	e.persistEntry(en, "compaction", r.Rows)
}

// Shutdown stops the background compactor, ends every standing-query
// subscription (their streams close, expiry timers stop), and syncs
// and closes every write-ahead log. Call it after the serving layer
// has drained; queries still work afterwards, but appends to
// WAL-backed entries will fail.
func (e *Engine) Shutdown() {
	if e.done != nil {
		e.stopOnce.Do(func() { close(e.done) })
		e.bg.Wait()
	}
	e.subs.closeAll()
	for _, name := range e.cat.names() {
		en, err := e.cat.get(name)
		if err != nil {
			continue
		}
		en.mu.Lock()
		wl := en.wal
		en.wal = nil
		w := en.w
		en.mu.Unlock()
		if w != nil {
			// Stop background seals so nothing writes after the WAL
			// closes.
			w.Close()
		}
		if wl != nil {
			if err := wl.Close(); err != nil {
				e.logf("engine: closing %q wal: %v", name, err)
			}
		}
	}
}
