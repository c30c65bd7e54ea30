package cinct

import (
	"context"
	"math/rand"
	"testing"
)

// TestPickCompaction pins the tiered victim-selection policy on
// hand-written shard-size profiles.
func TestPickCompaction(t *testing.T) {
	p := tieredCompaction
	cases := []struct {
		name   string
		sizes  []int
		policy compactionPolicy
		lo, hi int
	}{
		{"empty", nil, p, 0, 0},
		{"single", []int{100}, p, 0, 0},
		{"below fan-out", []int{100, 100, 100}, p, 0, 0},
		{"l0 tier full", []int{100, 100, 100, 100}, p, 0, 4},
		{"newest run wins", []int{100000, 90, 100, 110, 95}, p, 1, 5},
		{"big base not dragged in", []int{5000, 100, 100, 100, 100}, p, 1, 5},
		{"max shards truncates to newest",
			[]int{1, 1, 1, 1, 1, 1}, compactionPolicy{minShards: 2, maxShards: 4, tierRatio: 8}, 2, 6},
		{"dwarf absorbed by newer neighbor", []int{10, 10000, 9000}, p, 0, 2},
		{"tiny newest not absorbed backwards", []int{10000, 10}, p, 0, 0},
		{"geometric tiers stay put", []int{64000, 8000, 1000, 100}, p, 0, 0},
		{"full compaction", []int{64000, 8000, 1000, 100}, fullCompaction, 0, 4},
	}
	for _, tc := range cases {
		lo, hi := pickCompaction(tc.sizes, tc.policy)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: pickCompaction(%v) = [%d,%d), want [%d,%d)",
				tc.name, tc.sizes, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestWriterCompactBuiltIndex pins compaction over a built index for
// both flavors: a writer opened on a 4-shard index merges its shards
// while the index itself is untouched (copy-on-write), the compacted
// writer answers exactly like the original, trajectory IDs are
// unchanged, and a one-shard writer has nothing to merge.
func TestWriterCompactBuiltIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var trajs [][]uint32
	var times [][]int64
	for i := 0; i < 60; i++ {
		tr := genTraj(rng)
		trajs = append(trajs, tr)
		times = append(times, genTimes(rng, len(tr)))
	}
	opts := DefaultOptions()
	opts.Shards = 4

	t.Run("spatial", func(t *testing.T) {
		si, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriterAt(si, WriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := w.Compact(true)
		if err != nil {
			t.Fatal(err)
		}
		compacted := w.Snapshot()
		if res.Merged != 4 || compacted.Shards() != 1 {
			t.Fatalf("compaction merged %d shards into %d, want 4 into 1", res.Merged, compacted.Shards())
		}
		if got := si.Shards(); got != 4 {
			t.Fatalf("Compact mutated the base index: %d shards", got)
		}
		if got, want := compacted.NumTrajectories(), len(trajs); got != want {
			t.Fatalf("compacted holds %d trajectories, want %d", got, want)
		}
		for i := 0; i < 10; i++ {
			path := genPath(rng, trajs)
			got, err := search(compacted, Query{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			want := bruteMatches(trajs, path)
			if len(got) != len(want) {
				t.Fatalf("Find(%v) = %v, want %v", path, got, want)
			}
			for j := range got {
				if got[j].Match != want[j] {
					t.Fatalf("Find(%v) = %v, want %v", path, got, want)
				}
			}
		}
		for _, id := range []int{0, len(trajs) / 2, len(trajs) - 1} {
			got, err := w.Trajectory(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(trajs[id]) {
				t.Fatalf("Trajectory(%d) len %d, want %d", id, len(got), len(trajs[id]))
			}
		}
		if res, err := w.Compact(true); err != nil || res.Merged != 0 {
			t.Fatalf("one-shard Compact = %+v, %v; want nothing merged", res, err)
		}
	})

	t.Run("temporal", func(t *testing.T) {
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWriterAt(tix.Index, WriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Compact(true); err != nil {
			t.Fatal(err)
		}
		compacted := w.Snapshot()
		if got := compacted.Shards(); got != 1 || !compacted.Temporal() {
			t.Fatalf("compacted holds %d shards (temporal %v), want 1 with its store", got, compacted.Temporal())
		}
		q := Query{Path: genPath(rng, trajs), Kind: Occurrences,
			Interval: &Interval{From: -1 << 60, To: 1 << 60}}
		got := searchHits(t, compacted, q)
		want, _ := oracleSearch(trajs, times, q)
		if !sameHits(got, want) {
			t.Fatalf("compacted temporal Search = %v, want %v", got, want)
		}
	})
}

// TestSplicedValidation pins the audited invariants of the one
// shard-set mutation primitive: mid-list inserts and row-count-changing
// replacements must be rejected — either would renumber trajectories
// under live cursors.
func TestSplicedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var trajs [][]uint32
	for i := 0; i < 30; i++ {
		trajs = append(trajs, genTraj(rng))
	}
	opts := DefaultOptions()
	opts.Shards = 3
	si, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := buildShard([][]uint32{{1, 2}, {3}}, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := si.spliced(1, 1, repl); err == nil {
		t.Fatal("mid-list insert accepted")
	}
	if _, err := si.spliced(0, 2, repl); err == nil {
		t.Fatal("row-count-changing replacement accepted")
	}
	if _, err := si.spliced(2, 5, repl); err == nil {
		t.Fatal("out-of-range splice accepted")
	}
}

// TestWriterCompactConvergence drives Writer.Compact to its tiered
// fixpoint after a burst of tiny seals: the shard count must come down
// to the policy bound while every answer stays oracle-exact, and a
// full compaction must reach exactly one shard.
func TestWriterCompactConvergence(t *testing.T) {
	w, err := NewTemporalWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	var trajs [][]uint32
	var times [][]int64
	for seal := 0; seal < 16; seal++ {
		for i := 0; i < 3; i++ {
			tr := genTraj(rng)
			col := genTimes(rng, len(tr))
			if _, err := w.Append(tr, col); err != nil {
				t.Fatal(err)
			}
			trajs = append(trajs, tr)
			times = append(times, col)
		}
		if _, err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.SealedShards(); got != 16 {
		t.Fatalf("pre-compaction shard count = %d, want 16", got)
	}

	check := func(tag string) {
		t.Helper()
		for i := 0; i < 8; i++ {
			q := Query{Path: genPath(rng, trajs), Kind: Kind(rng.Intn(3))}
			if rng.Intn(2) == 0 {
				q.Interval = &Interval{From: -1 << 60, To: 1 << 60}
			}
			gotHits, gotCount := drainWriter(t, w, q)
			wantHits, wantCount := oracleSearch(trajs, times, q)
			if q.Kind == CountOnly {
				if gotCount != wantCount {
					t.Fatalf("%s: Count(%+v) = %d, oracle %d", tag, q, gotCount, wantCount)
				}
				continue
			}
			if !sameHits(gotHits, wantHits) {
				t.Fatalf("%s: Search(%+v) = %v, oracle %v", tag, q, gotHits, wantHits)
			}
		}
	}

	rounds := 0
	for {
		res, err := w.Compact(false)
		if err != nil {
			t.Fatalf("Compact round %d: %v", rounds, err)
		}
		if res.Merged == 0 {
			break
		}
		if res.ShardsAfter != res.ShardsBefore-res.Merged+1 {
			t.Fatalf("round %d: inconsistent result %+v", rounds, res)
		}
		rounds++
		check("mid-compaction")
		if rounds > 16 {
			t.Fatal("tiered compaction failed to converge")
		}
	}
	if got := w.SealedShards(); got >= 16 {
		t.Fatalf("tiered fixpoint left %d shards, want fewer than 16", got)
	}
	check("tiered-fixpoint")

	res, err := w.Compact(true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 && w.SealedShards() != 1 {
		t.Fatalf("full compaction merged nothing at %d shards", w.SealedShards())
	}
	if got := w.SealedShards(); got != 1 {
		t.Fatalf("full compaction left %d shards, want 1", got)
	}
	check("full")

	// Rows appended after compaction keep extending the ID space.
	tr := genTraj(rng)
	col := genTimes(rng, len(tr))
	id, err := w.Append(tr, col)
	if err != nil {
		t.Fatal(err)
	}
	if id != len(trajs) {
		t.Fatalf("post-compaction Append assigned ID %d, want %d", id, len(trajs))
	}
	trajs = append(trajs, tr)
	times = append(times, col)
	check("post-compaction-append")
}

// TestWriterCursorSurvivesCompaction pins the compaction-boundary
// paging guarantee, the cursor-epoch contract of the tentpole: a
// cursor taken before shards are merged resumes the exact suffix
// afterwards, because compaction preserves every global trajectory ID.
func TestWriterCursorSurvivesCompaction(t *testing.T) {
	w, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := []uint32{7, 8}
	var trajs [][]uint32
	rng := rand.New(rand.NewSource(51))
	for seal := 0; seal < 6; seal++ {
		for i := 0; i < 5; i++ {
			tr := append(genTraj(rng), 7, 8) // guarantee a hit per row
			if _, err := w.Append(tr, nil); err != nil {
				t.Fatal(err)
			}
			trajs = append(trajs, tr)
		}
		if _, err := w.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.SealedShards(); got != 6 {
		t.Fatalf("setup produced %d shards, want 6", got)
	}

	full, _ := drainWriter(t, w, Query{Path: path, Kind: Occurrences})

	r, err := w.Search(context.Background(), Query{Path: path, Kind: Occurrences, Limit: 7})
	if err != nil {
		t.Fatal(err)
	}
	page1 := drain(t, r)
	cursor := r.Cursor()
	if cursor == "" {
		t.Fatal("bounded page handed out no cursor")
	}

	// The boundary under test: merge everything while the cursor is
	// outstanding.
	if _, err := w.Compact(true); err != nil {
		t.Fatal(err)
	}
	if got := w.SealedShards(); got != 1 {
		t.Fatalf("compaction left %d shards, want 1", got)
	}

	rest, _ := drainWriter(t, w, Query{Path: path, Kind: Occurrences, Cursor: cursor})
	got := append(append([]Hit{}, page1...), rest...)
	if !sameHits(got, full) {
		t.Fatalf("pre-compaction page + post-compaction resume = %v, want %v", got, full)
	}
}
