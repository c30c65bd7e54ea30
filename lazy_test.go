package cinct

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"cinct/internal/trajgen"
)

// lazyCorpus is a small, dense timed corpus: 240 trajectories of ~18
// edges over a 4×4 grid, so a frequent edge occurs dozens of times in
// every quarter of the ID range.
func lazyCorpus(seed int64) ([][]uint32, [][]int64) {
	trajs := trajgen.Singapore2(trajgen.Config{GridW: 4, GridH: 4, NumTrajs: 240, MeanLen: 16, Seed: seed}).Trajs
	rng := rand.New(rand.NewSource(seed))
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		t := rng.Int63n(86400)
		for i := range col {
			col[i] = t
			t += 10 + rng.Int63n(30)
		}
		times[k] = col
	}
	return trajs, times
}

// shardWidth is the occurrence count of path in shard s, priced by the
// backward search alone.
func shardWidth(ix *Index, s int, path []uint32) (sp, ep int64) {
	pat, ok := ix.shards[s].corpus.ReversedPattern(path)
	if !ok {
		return 0, 0
	}
	sp, ep, _ = ix.shards[s].core.SuffixRange(pat)
	return sp, ep
}

// TestSearchLocatesOnlyNeededUnits pins limit-proportional locate: when
// shard 0 alone holds a limit-k page, a limit-k Occurrences query
// locates shard 0 and nothing else — exactly the LF steps of walking
// shard 0's suffix range — and accounts the other shards as skipped.
func TestSearchLocatesOnlyNeededUnits(t *testing.T) {
	trajs, _ := lazyCorpus(41)
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := frequentEdge(trajs[:ix.bounds[1]])
	const k = 10
	sp, ep := shardWidth(ix, 0, path)
	if ep-sp < k {
		t.Fatalf("shard 0 holds %d occurrences; the test needs >= %d", ep-sp, k)
	}
	var wantLF int64
	for j := sp; j < ep; j++ {
		_, lf := ix.shards[0].core.LocateSteps(j)
		wantLF += lf
	}
	r, err := ix.Search(context.Background(), Query{Path: path, Kind: Occurrences, Limit: k})
	if err != nil {
		t.Fatal(err)
	}
	hits := drain(t, r)
	if want := bruteMatches(trajs, path)[:k]; len(hits) != k || hits[k-1].Match != want[k-1] {
		t.Fatalf("page = %v, want %v", hits, want)
	}
	st := r.Stats()
	if st.ShardsProbed != 1 || st.ShardsSkipped != 3 {
		t.Errorf("probed/skipped = %d/%d, want 1/3", st.ShardsProbed, st.ShardsSkipped)
	}
	if st.LFSteps != wantLF {
		t.Errorf("LFSteps = %d, want %d (shard 0's range alone)", st.LFSteps, wantLF)
	}
}

// lateCancelCtx reports cancellation from its second Err call on: it
// passes Search's entry check and is cancelled by the time the plan
// scans the delta.
type lateCancelCtx struct {
	context.Context
	calls atomic.Int32
}

func (c *lateCancelCtx) Err() error {
	if c.calls.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestSearchPlanDeltaCountCancels pins that a count over a large
// unsealed delta honors the query's context: the delta scan is part of
// the query, not a background computation.
func TestSearchPlanDeltaCountCancels(t *testing.T) {
	w, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if _, err := w.Append([]uint32{1, 2, 3, uint32(i % 7)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := searchCount(w, Query{Path: []uint32{2, 3}, Kind: CountOnly}); err != nil || n != 1500 {
		t.Fatalf("count = %d, %v; want 1500", n, err)
	}
	_, err = w.Search(&lateCancelCtx{Context: context.Background()}, Query{Path: []uint32{2, 3}, Kind: CountOnly})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Search with a cancelled context = %v, want context.Canceled", err)
	}
}

// lazyFixture is one searcher of the differential matrix plus the
// number of units its Search sees.
type lazyFixture struct {
	name  string
	s     searcher
	units int
}

// lazyFixtures builds temporal indexes with 1, 3 and 4 shards and a
// temporal Writer holding sealed shards plus an unsealed delta, all
// over the same corpus.
func lazyFixtures(t *testing.T, trajs [][]uint32, times [][]int64) []lazyFixture {
	t.Helper()
	var out []lazyFixture
	for _, k := range []int{1, 3, 4} {
		opts := DefaultOptions()
		opts.Shards = k
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, lazyFixture{fmt.Sprintf("shards=%d", k), tix, k})
	}
	opts := DefaultOptions()
	opts.Shards = 2
	base, err := BuildTemporal(trajs[:100], times[:100], opts)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTemporalWriterAt(base, WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(trajs[100:150], times[100:150]); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch(trajs[150:], times[150:]); err != nil {
		t.Fatal(err)
	}
	return append(out, lazyFixture{"writer", w, 4})
}

// page runs one Search and drains it, returning the hits, the resume
// cursor and the work account.
func page(t *testing.T, s searcher, q Query) ([]Hit, string, QueryStats) {
	t.Helper()
	r, err := s.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("Search(%+v): %v", q, err)
	}
	hits := drain(t, r)
	return hits, r.Cursor(), r.Stats()
}

// TestSearchLazyDifferential pins that locating units in waves changes
// no answer: every page of every query — first pages at each limit and
// a full cursor walk — equals the matching slice of a fully drained,
// sorted oracle, across shard counts, a Writer with a delta, both hit
// kinds and with and without an interval.
func TestSearchLazyDifferential(t *testing.T) {
	trajs, times := lazyCorpus(43)
	paths := [][]uint32{frequentEdge(trajs), trajs[3][4:6], trajs[150][:2], {1 << 30}}
	intervals := []*Interval{nil, {From: 20000, To: 60000}}
	for _, f := range lazyFixtures(t, trajs, times) {
		for _, path := range paths {
			for _, iv := range intervals {
				for _, kind := range []Kind{Occurrences, Trajectories} {
					q := Query{Path: path, Interval: iv, Kind: kind}
					oracle, _, _ := page(t, f.s, q)
					slices.SortFunc(oracle, func(a, b Hit) int {
						if matchLess(a.Match, b.Match) {
							return -1
						}
						if matchLess(b.Match, a.Match) {
							return 1
						}
						return 0
					})
					if kind == Occurrences && iv == nil {
						if want := bruteMatches(trajs, path); len(oracle) != len(want) {
							t.Fatalf("%s %v: oracle has %d hits, brute force %d", f.name, path, len(oracle), len(want))
						}
					}
					for _, limit := range []int{1, 3, 10, 0} {
						name := fmt.Sprintf("%s path=%v iv=%v kind=%d limit=%d", f.name, path, iv != nil, kind, limit)
						q.Limit, q.Cursor = limit, ""
						for off := 0; ; {
							got, cursor, st := page(t, f.s, q)
							want := oracle[off:]
							if limit > 0 {
								want = want[:min(limit, len(want))]
							}
							if !slices.Equal(got, want) {
								t.Fatalf("%s: page at %d = %v, want %v", name, off, got, want)
							}
							if st.ShardsProbed+st.ShardsSkipped != int64(f.units) {
								t.Fatalf("%s: probed+skipped = %d+%d, want %d units",
									name, st.ShardsProbed, st.ShardsSkipped, f.units)
							}
							off += len(got)
							if cursor == "" {
								break
							}
							q.Cursor = cursor
						}
					}
				}
			}
		}
	}
}

// TestSearchLazyBreakLeavesUnitsUnlocated pins the early stop: a page
// that needs two shards' worth of occurrences locates exactly those two
// before the first hit, breaking out of the loop locates nothing more,
// and resuming finishes the page without touching the shards past it.
func TestSearchLazyBreakLeavesUnitsUnlocated(t *testing.T) {
	trajs, _ := lazyCorpus(44)
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := frequentEdge(trajs)
	for s := 0; s < 4; s++ {
		if sp, ep := shardWidth(ix, s, path); sp >= ep {
			t.Fatalf("shard %d holds no occurrence of %v", s, path)
		}
	}
	sp, ep := shardWidth(ix, 0, path)
	limit := int(ep-sp) + 1
	q := Query{Path: path, Kind: Occurrences, Limit: limit}
	r, err := ix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		break
	}
	if st := r.Stats(); st.ShardsProbed != 2 || st.ShardsSkipped != 2 || st.HitsEmitted != 1 {
		t.Fatalf("after one hit: probed/skipped/hits = %d/%d/%d, want 2/2/1",
			st.ShardsProbed, st.ShardsSkipped, st.HitsEmitted)
	}
	rest := drain(t, r)
	if want := bruteMatches(trajs, path)[1:limit]; len(rest) != len(want) || rest[len(rest)-1].Match != want[len(want)-1] {
		t.Fatalf("resumed page ends %v, want %d hits ending %v", rest[len(rest)-1], len(want), want[len(want)-1])
	}
	if st := r.Stats(); st.ShardsProbed != 2 {
		t.Fatalf("finishing the page probed %d shards, want 2", st.ShardsProbed)
	}
}

// TestSearchLazyCancelBetweenPulls pins that a wave started after the
// context was cancelled does no work and ends the stream with the
// context's error.
func TestSearchLazyCancelBetweenPulls(t *testing.T) {
	trajs, times := lazyCorpus(45)
	opts := DefaultOptions()
	opts.Shards = 4
	tix, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	// An interval no trajectory overlaps: every width is an upper bound
	// that yields nothing, so the stream has to walk wave by wave.
	iv := &Interval{From: -10, To: -1}
	path := frequentEdge(trajs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := tix.Search(ctx, Query{Path: path, Interval: iv, Kind: Occurrences, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	probed := r.Stats().ShardsProbed
	if probed == 4 {
		t.Fatal("first wave located every shard; nothing left to cancel")
	}
	cancel()
	var streamErr error
	for _, herr := range r.All() {
		if herr == nil {
			continue
		}
		streamErr = herr
	}
	if !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", streamErr)
	}
	if st := r.Stats(); st.ShardsProbed != probed {
		t.Fatalf("cancelled stream probed %d shards, had %d", st.ShardsProbed, probed)
	}
}
