package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cinct"
	"cinct/internal/querygen"
	"cinct/internal/wal"
)

// walEngine opens an engine over dir with write-ahead logging rooted
// at wal. Every acknowledged append's write(2) has completed, so an
// in-process kill and reopen reads it whatever the fsync window.
func walEngine(t *testing.T, dir, wal string) *Engine {
	t.Helper()
	e := New(Options{
		SealThreshold: -1,
		WAL:           WALOptions{Dir: wal},
	})
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	return e
}

// TestEngineWALKillReplay is the crash-recovery acceptance test: rows
// acknowledged by Append but never sealed must survive the process
// dying without any shutdown, via WAL replay on the next open. The
// first engine is simply abandoned — no Seal, no Shutdown, no Close —
// exactly what SIGKILL leaves behind.
func TestEngineWALKillReplay(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	trajs := testCorpus(17, 40)
	writeIndexes(t, dir, trajs)
	ctx := context.Background()
	marker := []uint32{211, 212, 213}

	e1 := walEngine(t, dir, wal)
	// Spatial: two batches, never sealed.
	if _, err := e1.Append(ctx, "spatial", [][]uint32{marker, append([]uint32{3}, marker...)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Append(ctx, "spatial", [][]uint32{{5, 6, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	// Temporal: one batch, never sealed.
	if _, err := e1.Append(ctx, "temporal", [][]uint32{marker}, [][]int64{{10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	// e1 is now "killed": no cleanup of any kind.

	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	defer e2.CloseAll()
	n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("replayed spatial marker count = %d, want 2", n)
	}
	info, err := e2.Info("spatial")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := info.Stats.Trajectories, len(trajs)+3; got != want {
		t.Fatalf("spatial rows after replay = %d, want %d", got, want)
	}
	// Replayed rows reconstruct with their original IDs.
	tr, err := e2.Trajectory(ctx, "spatial", len(trajs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != len(marker) || tr[0] != marker[0] {
		t.Fatalf("replayed Trajectory(%d) = %v", len(trajs), tr)
	}
	// Temporal replay keeps the timestamp column.
	hits, err := search(ctx, e2, "temporal", cinct.Query{Path: marker, Interval: &cinct.Interval{From: 10, To: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Trajectory != len(trajs) || hits[0].EnteredAt != 10 {
		t.Fatalf("replayed temporal hit = %+v", hits)
	}
}

// TestEngineWALSealRetiresAndNoDoubleReplay pins the watermark
// contract: sealed rows live in the v3/persisted file and must NOT be
// replayed again (that would duplicate them), while rows appended
// after the seal still are. It also checks the seal retired the
// covered segments.
func TestEngineWALSealRetiresAndNoDoubleReplay(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	trajs := testCorpus(19, 30)
	writeIndexes(t, dir, trajs)
	ctx := context.Background()
	marker := []uint32{221, 222}

	e1 := walEngine(t, dir, wal)
	if _, err := e1.Append(ctx, "spatial", [][]uint32{marker, marker}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Seal(ctx, "spatial"); err != nil {
		t.Fatal(err)
	}
	info, err := e1.Info("spatial")
	if err != nil {
		t.Fatal(err)
	}
	if info.WALSegments != 1 {
		t.Fatalf("after seal: %d WAL segments, want the 1 empty active", info.WALSegments)
	}
	// One more acknowledged batch after the seal, then "kill".
	if _, err := e1.Append(ctx, "spatial", [][]uint32{marker}, nil); err != nil {
		t.Fatal(err)
	}

	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	defer e2.CloseAll()
	n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("marker count after replay = %d, want 3 (2 sealed + 1 replayed, no duplicates)", n)
	}
	info, err = e2.Info("spatial")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := info.Stats.Trajectories, len(trajs)+3; got != want {
		t.Fatalf("rows after replay = %d, want %d", got, want)
	}
}

// TestEngineWALGapFailsLoudly pins the missing-data contract: a WAL
// that resumes past the persisted row count means acknowledged rows
// are gone, and the engine must refuse to serve rather than silently
// come up short.
func TestEngineWALGapFailsLoudly(t *testing.T) {
	dir, walDir := t.TempDir(), t.TempDir()
	trajs := testCorpus(23, 20)
	writeIndexes(t, dir, trajs)
	ctx := context.Background()

	e1 := walEngine(t, dir, walDir)
	if _, err := e1.Append(ctx, "spatial", [][]uint32{{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Seal(ctx, "spatial"); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.Append(ctx, "spatial", [][]uint32{{3, 4}}, nil); err != nil {
		t.Fatal(err)
	}
	e1.Shutdown()
	e1.CloseAll()

	// Roll the index file back to its pre-ingestion state: the WAL now
	// resumes at a row the file does not hold.
	writeIndexes(t, dir, trajs[:len(trajs)-1])
	e := New(Options{SealThreshold: -1, WAL: WALOptions{Dir: walDir}})
	if _, err := e.OpenDir(dir); !errors.Is(err, wal.ErrCorrupt) {
		e.CloseAll()
		t.Fatalf("OpenDir over a WAL that proves acknowledged rows are missing: %v, want wal.ErrCorrupt", err)
	}
}

// TestEngineWALAppendFailurePoisonsUntilReload pins the no-gap
// contract: when a batch lands in the delta but its WAL record fails,
// the rows hold assigned global IDs the log lacks — a further logged
// append would write a gapped FirstID that a later replay must refuse,
// bricking the index. So the entry must refuse appends until a Reload
// rebuilds the delta from the log, and the log must replay cleanly on
// the next open.
func TestEngineWALAppendFailurePoisonsUntilReload(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	trajs := testCorpus(41, 20)
	writeIndexes(t, dir, trajs)
	ctx := context.Background()
	marker := []uint32{241, 242}

	e := walEngine(t, dir, wal)
	if _, err := e.Append(ctx, "spatial", [][]uint32{marker}, nil); err != nil {
		t.Fatal(err)
	}
	// Break the log out from under the engine: the next append's rows
	// reach the delta, but the WAL record fails.
	en, err := e.cat.get("spatial")
	if err != nil {
		t.Fatal(err)
	}
	en.mu.RLock()
	wl := en.wal
	en.mu.RUnlock()
	if wl == nil {
		t.Fatal("entry has no WAL handle")
	}
	wl.Close()
	if _, err := e.Append(ctx, "spatial", [][]uint32{{3, 4}}, nil); err == nil {
		t.Fatal("append with a broken WAL was acknowledged")
	}
	// Poisoned: a retry must be refused outright — were it logged, its
	// FirstID would skip the unlogged rows sitting in the delta.
	if _, err := e.Append(ctx, "spatial", [][]uint32{{5, 6}}, nil); err == nil {
		t.Fatal("append after a WAL failure was acknowledged — would create an ID gap")
	}
	// Reload rebuilds the delta from the log (dropping the unlogged,
	// never-acknowledged rows) and lifts the poison.
	if _, err := e.Reload("spatial"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "spatial", [][]uint32{marker}, nil); err != nil {
		t.Fatalf("append after reload still refused: %v", err)
	}
	// e is now "killed". A fresh engine must replay the log cleanly —
	// exactly the acknowledged batches, no gap error, no bricked index.
	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	defer e2.CloseAll()
	n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("marker count after crash replay = %d, want the 2 acknowledged", n)
	}
	info, err := e2.Info("spatial")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := info.Stats.Trajectories, len(trajs)+2; got != want {
		t.Fatalf("rows after crash replay = %d, want %d (acknowledged batches only)", got, want)
	}
}

// TestEngineCompactPersists drives Engine.Compact end to end: a burst
// of tiny seals fans the shard set out as far as the default policy
// lets it, a full compaction brings it back to one shard without
// changing any answer, and the compacted state lands in the backing
// file so a Reload serves it.
func TestEngineCompactPersists(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(29, 40)
	writeIndexes(t, dir, trajs)
	e := New(Options{SealThreshold: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	marker := []uint32{231, 232}

	rows := 0
	for i := 0; i < 5; i++ {
		if _, err := e.Append(ctx, "temporal", [][]uint32{append([]uint32{uint32(i)}, marker...)},
			[][]int64{{int64(i), int64(i) + 1, int64(i) + 2}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Seal(ctx, "temporal"); err != nil {
			t.Fatal(err)
		}
		rows++
	}
	info, err := e.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	// Each seal merges back to the default policy, which still leaves
	// the tiny newest shards beside the built one.
	if info.Stats.Shards < 2 {
		t.Fatalf("per-seal fan-out missing: %d shards after 5 seals", info.Stats.Shards)
	}
	before, _ := drainEngine(t, e, "temporal", cinct.Query{Path: marker, Kind: cinct.Occurrences})
	if len(before) != rows {
		t.Fatalf("pre-compaction marker hits = %d, want %d", len(before), rows)
	}

	res, err := e.Compact(ctx, "temporal", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 || res.ShardsAfter != 1 {
		t.Fatalf("CompactResult = %+v, want a merge down to 1 shard", res)
	}
	after, _ := drainEngine(t, e, "temporal", cinct.Query{Path: marker, Kind: cinct.Occurrences})
	if len(after) != len(before) {
		t.Fatalf("compaction changed answers: %d hits vs %d", len(after), len(before))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("compaction changed answers: %v vs %v", before, after)
		}
	}

	// Idempotence: a second full compaction finds nothing to do.
	res, err = e.Compact(ctx, "temporal", true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 0 {
		t.Fatalf("second Compact merged %d shards on a 1-shard index", res.Merged)
	}

	// Persistence: Reload discards the writer and re-reads the file.
	if _, err := e.Reload("temporal"); err != nil {
		t.Fatal(err)
	}
	info, err = e.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Shards != 1 {
		t.Fatalf("reloaded file holds %d shards, want the compacted 1", info.Stats.Shards)
	}
	n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != rows {
		t.Fatalf("post-reload marker count = %d, want %d", n, rows)
	}
}

// TestEngineSealsKeepPolicy pins that compaction follows the seal:
// threshold seals alone, with no Compact call, leave the shard set at
// the default policy's fixpoint and persist it, answers stay equal to
// a naive scan, and an index nobody appends to keeps the shard layout
// it was built with.
func TestEngineSealsKeepPolicy(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(31, 30)
	writeIndexes(t, dir, trajs)
	const threshold = 3
	e := New(Options{SealThreshold: threshold})
	defer e.Shutdown()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	en, err := e.cat.get("temporal")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	extra := testCorpus(32, 60)
	for _, tr := range extra {
		// One seal at a time runs per entry; waiting it out makes every
		// third append start one, so the seals fan the shards out.
		for en.sealing.Load() {
			time.Sleep(time.Millisecond)
		}
		if _, err := e.Append(ctx, "temporal", [][]uint32{tr}, testTimes([][]uint32{tr})); err != nil {
			t.Fatal(err)
		}
	}
	// Let the last seal reach the fixpoint before counting.
	for en.sealing.Load() {
		time.Sleep(time.Millisecond)
	}
	if got, want := e.metrics.sealSec.Count(), uint64(len(extra)/threshold); got != want {
		t.Fatalf("%d threshold seals ran, want %d", got, want)
	}
	res, err := e.Compact(ctx, "temporal", false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 0 {
		t.Fatalf("Compact after the seals merged %+v: the seals left the shard set out of policy", res)
	}
	all := append(append([][]uint32{}, trajs...), extra...)
	check := func(when string) {
		t.Helper()
		for _, tr := range all[:20] {
			path := tr[:min(2, len(tr))]
			n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: path, Kind: cinct.CountOnly})
			if err != nil {
				t.Fatal(err)
			}
			if want := querygen.NaiveCount(all, path); n != want {
				t.Fatalf("%s: count %v = %d, want %d", when, path, n, want)
			}
		}
	}
	check("after the threshold seals")

	// The last threshold seal persisted the shard set Compact finds in
	// policy.
	info, err := e.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reload("temporal"); err != nil {
		t.Fatal(err)
	}
	reloaded, err := e.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Stats.Shards != info.Stats.Shards || reloaded.Stats.Trajectories != len(all) {
		t.Fatalf("reloaded file holds %d shards and %d rows, want %d and %d",
			reloaded.Stats.Shards, reloaded.Stats.Trajectories, info.Stats.Shards, len(all))
	}
	if res, err := e.Compact(ctx, "temporal", false); err != nil || res.Merged != 0 {
		t.Fatalf("Compact of the reloaded file = %+v, %v; want nothing to merge", res, err)
	}
	check("after reload")

	// Sealing an empty delta leaves the built 3-shard "spatial" alone.
	if _, err := e.Seal(ctx, "spatial"); err != nil {
		t.Fatal(err)
	}
	if info, err := e.Info("spatial"); err != nil || info.Stats.Shards != 3 {
		t.Fatalf("a seal reshaped an index nobody appended to: %+v, %v; want 3 shards", info.Stats, err)
	}
}

// TestEngineWALRetireKeepsDirBounded pins segment retirement under a
// seal-per-batch workload: the WAL directory must not accumulate one
// segment per batch forever.
func TestEngineWALRetireKeepsDirBounded(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	trajs := testCorpus(37, 20)
	writeIndexes(t, dir, trajs)
	e := walEngine(t, dir, wal)
	defer e.CloseAll()
	defer e.Shutdown()
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := e.Append(ctx, "spatial", [][]uint32{{1, 2, 3}}, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Seal(ctx, "spatial"); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(wal, "spatial", "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) > 2 {
		t.Fatalf("WAL dir holds %d segments after 8 sealed batches, want retirement to bound it", len(segs))
	}
	for _, s := range segs {
		if fi, err := os.Stat(s); err == nil && fi.Size() > 1<<20 {
			t.Fatalf("retired WAL kept %d bytes in %s", fi.Size(), s)
		}
	}
}
