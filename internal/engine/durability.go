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
	// index. "" disables write-ahead logging. The log group-commits:
	// it fsyncs 50 ms after the first unsynced append, or at once when
	// 1 MiB is unsynced. Acknowledged appends survive process death
	// regardless — the record's write(2) completes before the ack —
	// the window only bounds exposure to whole-machine failure.
	Dir string
}

// walDir returns the per-index WAL directory: one subdirectory per
// index name, so segment sequences never collide across indexes.
func (e *Engine) walDir(name string) string {
	return filepath.Join(e.walOpts.Dir, name)
}

// openWAL opens the entry's write-ahead log (recovering and
// truncating a torn tail), replays every batch the persisted index
// file does not already hold into the entry's delta, retires fully
// covered segments, and publishes the log handle for Append. A no-op
// when the engine runs without Options.WAL. open attaches the log
// before it publishes the entry, and Reload reattaches it after its
// swap, so no Append can reach an entry whose log is missing or
// mid-replay.
//
// Caller holds en.ingestMu: Append reads the (writer, wal) pair under
// that lock, so holding it from dropping the old handle to publishing
// the new one leaves no window where an append is acknowledged
// without a log record or logged against a stale handle.
func (e *Engine) openWAL(en *entry) error {
	if e.walOpts.Dir == "" {
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
	l, err := wal.Open(e.walDir(en.name), wal.Options{})
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
	// Not closed: unpublished (open), or Reload holds persistMu (Close waits).
	en.mu.Lock()
	w := en.w
	en.wal = l
	en.mu.Unlock()
	if err := l.Retire(w.SealedTrajectories()); err != nil {
		e.logf("engine: retiring %q wal segments: %v", en.name, err)
	}
	// The delta was rebuilt from the log, so the gap a failed WAL
	// append left behind (never-acknowledged delta rows with no log
	// record) is gone: lift the ingestion poison. ingestMu is held.
	en.walErr = nil
	// A replay can leave the delta past the threshold; seal it now
	// rather than at the next append.
	e.sealWhenFull(en, w.DeltaTrajectories())
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
		w, err := en.writer()
		if err != nil {
			return replayed, fmt.Errorf("engine: replaying %q write-ahead log: %w", en.name, err)
		}
		have := w.NumTrajectories()
		switch {
		case b.FirstID+len(b.Trajs) <= have:
			continue // fully sealed into the persisted file
		case b.FirstID > have:
			return replayed, fmt.Errorf("%w: %q write-ahead log resumes at row %d but the index holds %d — acknowledged rows are missing",
				wal.ErrCorrupt, en.name, b.FirstID, have)
		}
		off := have - b.FirstID
		trajs := b.Trajs[off:]
		var times [][]int64
		if b.Times != nil {
			times = b.Times[off:]
		}
		if _, _, err := e.appendBatch(en, w, trajs, times); err != nil {
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

// Compact merges index name's sealed shards per the library's default
// tiered policy (or down to a single shard when full is set), looping
// until the shard set reaches the policy's fixpoint, then persists the
// compacted state to the index file — or retries a persist an
// earlier seal or compaction left failed, so success means the file
// holds every sealed row. Queries, appends and seals proceed
// throughout; global trajectory IDs — and therefore outstanding
// cursors — are untouched.
func (e *Engine) Compact(ctx context.Context, name string, full bool) (CompactResult, error) {
	if err := ctx.Err(); err != nil {
		return CompactResult{}, err
	}
	en, err := e.cat.get(name)
	if err != nil {
		return CompactResult{}, err
	}
	w, err := en.writer()
	if err != nil {
		return CompactResult{}, err
	}
	res, err := e.compactRounds(en, w, full, func() bool { return ctx.Err() != nil })
	if err == nil {
		err = ctx.Err()
	}
	if perr := e.persistEntry(en, w, "compaction", res.Merged > 0, res.Rows); err == nil {
		err = perr
	}
	en.mu.RLock()
	res.Generation = en.gen
	en.mu.RUnlock()
	return res, err
}

// compactRounds runs w.Compact(full) rounds until one merges
// nothing, timing each merge round into compactSec. It stops early,
// between rounds, once stop reports true; the rounds already run
// stand, since a merge never changes an answer.
func (e *Engine) compactRounds(en *entry, w *cinct.Writer, full bool, stop func() bool) (CompactResult, error) {
	res := CompactResult{ShardsBefore: w.SealedShards(), ShardsAfter: w.SealedShards()}
	var err error
	for {
		t0 := time.Now()
		var r cinct.CompactionResult
		if r, err = w.Compact(full); err != nil || r.Merged == 0 {
			break
		}
		e.metrics.compactSec.Observe(time.Since(t0).Seconds())
		res.Merged += r.Merged
		res.Rows += r.Rows
		res.Rounds++
		res.ShardsAfter = r.ShardsAfter
		if stop() {
			break
		}
	}
	if res.Merged > 0 {
		e.logf("engine: %q compacted %d shards down to %d (%d trajectories re-compressed, %d rounds)",
			en.name, res.ShardsBefore, res.ShardsAfter, res.Rows, res.Rounds)
	}
	return res, err
}
