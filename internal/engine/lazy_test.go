package engine

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"testing"

	"cinct"
)

// TestEngineSearchLazyCancelReleasesSlot pins that a live stream whose
// context is cancelled between two pulls ends with the context's error
// and gives its worker slot back without an explicit Close.
func TestEngineSearchLazyCancelReleasesSlot(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(29, 120)
	writeIndexes(t, dir, trajs)
	e := New(Options{Workers: 1, CacheEntries: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	q := cinct.Query{Path: trajs[0][:1], Kind: cinct.Occurrences, Limit: 50}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := e.Search(ctx, "spatial", q)
	if err != nil {
		t.Fatal(err)
	}
	for _, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		break
	}
	cancel()
	var streamErr error
	for _, herr := range r.All() {
		if herr != nil {
			streamErr = herr
		}
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error after cancel = %v, want context.Canceled", streamErr)
	}
	// The only slot must be free again: this Search would block
	// forever behind a leaked one.
	hits, _ := drainSearch(t, e, "spatial", q)
	if len(hits) == 0 {
		t.Fatal("Search after the cancelled stream returned no hits")
	}
}

// TestEngineSearchLazySurvivesSealCompactReload pins that a stream
// whose later shards are located after its index was sealed, compacted,
// persisted and remapped still answers from the snapshot it started
// on: the shards it holds keep their mapping alive.
func TestEngineSearchLazySurvivesSealCompactReload(t *testing.T) {
	trajs := testCorpus(31, 90)
	times := testTimes(trajs)
	dir := t.TempDir()
	opts := cinct.DefaultOptions()
	opts.Shards = 3
	tix, err := cinct.BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "t"+ExtTemporal), tix.Save)
	e := New(Options{CacheEntries: -1, Workers: 4})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The delta's rows are the latest in time, so an interval starting
	// at them rejects every sealed candidate: the stream has to walk
	// the shards one by one before reaching its hits.
	extra := testCorpus(32, 30)
	extraTimes := testTimes(extra)
	for _, col := range extraTimes {
		for i := range col {
			col[i] += int64(1000 * len(trajs))
		}
	}
	if _, err := e.Append(ctx, "t", extra, extraTimes); err != nil {
		t.Fatal(err)
	}
	freq := map[uint32]int{}
	var path []uint32
	for _, tr := range extra {
		for _, edge := range tr {
			if freq[edge]++; path == nil || freq[edge] > freq[path[0]] {
				path = []uint32{edge}
			}
		}
	}
	q := cinct.Query{
		Path:     path,
		Interval: &cinct.Interval{From: int64(1000 * len(trajs)), To: 1 << 62},
		Kind:     cinct.Occurrences,
		Limit:    5,
	}
	full := q
	full.Limit = 0
	oracle, _ := drainSearch(t, e, "t", full)
	if len(oracle) < q.Limit {
		t.Fatalf("oracle has %d hits, need %d", len(oracle), q.Limit)
	}

	r, err := e.Search(ctx, "t", q)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if st := r.live.Stats(); st.ShardsProbed >= 4 {
		t.Fatalf("Search probed %d of 4 units; nothing left to run after the reload", st.ShardsProbed)
	}
	if _, err := e.Seal(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(ctx, "t", true); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Reload("t"); err != nil {
		t.Fatal(err)
	}
	var got []cinct.Hit
	for h, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		got = append(got, h)
	}
	if want := oracle[:q.Limit]; !slices.Equal(got, want) {
		t.Fatalf("page drained after seal+compact+reload = %v, want %v", got, want)
	}
}
