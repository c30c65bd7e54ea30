package cinct

import (
	"context"
	"testing"

	"cinct/internal/tempo"
)

// TestQueryStatsAccounting checks the cost account against independent
// witnesses: brute force for decode work (one probe per occurrence the
// timestamp summaries keep, each costing what one tempo probe decodes)
// and for hit counts, and the shard layout for probe/skip counts.
func TestQueryStatsAccounting(t *testing.T) {
	trajs, times := denseTimedCorpus(31)
	path := frequentEdge(trajs)
	iv := &Interval{From: 20000, To: 60000}
	// A column's checkpoints are its own, so a probe decodes as much in
	// a store of the whole corpus as in its shard's.
	ts := tempo.New(times)
	var wantSteps int64
	for _, m := range bruteMatches(trajs, path) {
		if lo, hi := ts.MinMax(m.Trajectory); hi >= iv.From && lo <= iv.To {
			_, steps := ts.AtCounted(m.Trajectory, m.Offset)
			wantSteps += int64(steps)
		}
	}
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatalf("shards=%d: BuildTemporal: %v", shards, err)
		}
		r, err := tix.Search(context.Background(), Query{Path: path, Kind: Occurrences, Interval: iv})
		if err != nil {
			t.Fatalf("shards=%d: Search: %v", shards, err)
		}
		hits := drain(t, r)
		st := r.Stats()
		if st.HitsEmitted != int64(len(hits)) {
			t.Errorf("shards=%d: HitsEmitted = %d, want %d", shards, st.HitsEmitted, len(hits))
		}
		if st.ShardsProbed != int64(shards) || st.ShardsSkipped != 0 {
			t.Errorf("shards=%d: probed/skipped = %d/%d, want %d/0",
				shards, st.ShardsProbed, st.ShardsSkipped, shards)
		}
		if st.LFSteps <= 0 {
			t.Errorf("shards=%d: LFSteps = %d, want > 0", shards, st.LFSteps)
		}
		if st.DecodeSteps != wantSteps {
			t.Errorf("shards=%d: DecodeSteps = %d, brute force says %d", shards, st.DecodeSteps, wantSteps)
		}
		if st.CandidateRows < st.HitsEmitted {
			t.Errorf("shards=%d: CandidateRows = %d < HitsEmitted = %d",
				shards, st.CandidateRows, st.HitsEmitted)
		}
		if st.DeltaRows != 0 {
			t.Errorf("shards=%d: DeltaRows = %d on an immutable index", shards, st.DeltaRows)
		}

		// CountOnly probes every unit and emits no hits.
		r, err = tix.Search(context.Background(), Query{Path: path, Kind: CountOnly, Interval: iv})
		if err != nil {
			t.Fatalf("shards=%d: count Search: %v", shards, err)
		}
		st = r.Stats()
		if st.ShardsProbed != int64(shards) || st.HitsEmitted != 0 {
			t.Errorf("shards=%d: count stats probed=%d hits=%d, want %d/0",
				shards, st.ShardsProbed, st.HitsEmitted, shards)
		}
	}
}

// TestQueryStatsCursorSkip pins the shard-skip accounting: resuming
// from a cursor positioned past a shard's ID range must dismiss that
// shard without probing it.
func TestQueryStatsCursorSkip(t *testing.T) {
	trajs, _ := denseTimedCorpus(32)
	opts := DefaultOptions()
	opts.Shards = 3
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := frequentEdge(trajs)
	// Position the cursor on a hit near the end of the corpus so at
	// least the first shard falls wholly before the resume point.
	r, err := ix.Search(context.Background(), Query{Path: path, Kind: Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	all := drain(t, r)
	if len(all) < 4 {
		t.Skipf("corpus too sparse: %d hits", len(all))
	}
	q := Query{Path: path, Kind: Occurrences}
	q.Cursor = q.CursorAfter(all[len(all)-2])
	r, err = ix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, r)
	st := r.Stats()
	if st.ShardsSkipped == 0 {
		t.Errorf("ShardsSkipped = 0 with a deep resume cursor; probed = %d", st.ShardsProbed)
	}
	if st.ShardsProbed+st.ShardsSkipped != 3 {
		t.Errorf("probed+skipped = %d, want 3", st.ShardsProbed+st.ShardsSkipped)
	}
}

// TestQueryStatsDelta checks that the live Writer's uncompressed tail
// accounts its brute-force scan.
func TestQueryStatsDelta(t *testing.T) {
	w, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]uint32{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	r, err := w.Search(context.Background(), Query{Path: []uint32{2, 3}, Kind: Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	hits := drain(t, r)
	st := r.Stats()
	if len(hits) != 10 {
		t.Fatalf("hits = %d, want 10", len(hits))
	}
	if st.DeltaRows != 10 {
		t.Errorf("DeltaRows = %d, want 10", st.DeltaRows)
	}
	if st.LFSteps != 0 || st.DecodeSteps != 0 {
		t.Errorf("compressed-path counters moved on a pure delta: lf=%d decode=%d", st.LFSteps, st.DecodeSteps)
	}
}
