package cinct

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"cinct/internal/tempo"
	"cinct/internal/trajgen"
)

// bruteMatches is the Search ground truth computed straight off the
// corpus: every (trajectory, offset) where path occurs, canonically
// ordered by construction.
func bruteMatches(trajs [][]uint32, path []uint32) []Match {
	var out []Match
	if len(path) == 0 {
		return out
	}
	for k, tr := range trajs {
		for off := 0; off+len(path) <= len(tr); off++ {
			ok := true
			for i := range path {
				if tr[off+i] != path[i] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, Match{Trajectory: k, Offset: off})
			}
		}
	}
	return out
}

// drain collects a Results stream.
func drain(t *testing.T, r *Results) []Hit {
	t.Helper()
	var out []Hit
	for h, err := range r.All() {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		out = append(out, h)
	}
	return out
}

// searcher is what Index, TemporalIndex and Writer have in common.
type searcher interface {
	Search(ctx context.Context, q Query) (*Results, error)
}

// search runs q to the end of its stream — the call behind every
// assertion on a hit list. An empty stream is a nil slice.
func search(s searcher, q Query) ([]Hit, error) {
	r, err := s.Search(context.Background(), q)
	if err != nil {
		return nil, err
	}
	var out []Hit
	for h, err := range r.All() {
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// searchIDs is search for the distinct trajectories containing path,
// projected onto their IDs (never nil).
func searchIDs(s searcher, path []uint32, limit int) ([]int, error) {
	hits, err := search(s, Query{Path: path, Kind: Trajectories, Limit: limit})
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.Trajectory
	}
	return ids, nil
}

// searchCount answers a CountOnly query.
func searchCount(s searcher, q Query) (int, error) {
	r, err := s.Search(context.Background(), q)
	if err != nil {
		return 0, err
	}
	return r.Count()
}

func searchHits(t *testing.T, ix *Index, q Query) []Hit {
	t.Helper()
	hits, err := search(ix, q)
	if err != nil {
		t.Fatalf("Search(%+v): %v", q, err)
	}
	return hits
}

// TestSearchDifferential pins every Query kind against a brute-force
// corpus scan, over monolithic and sharded indexes and the full limit
// matrix.
func TestSearchDifferential(t *testing.T) {
	trajs := shardedTestCorpus(t)
	ctx := context.Background()
	for _, shards := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Shards = shards
		ix, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, path := range queryPaths(trajs) {
			want := bruteMatches(trajs, path)
			wantIDs := []int{}
			for _, m := range want {
				if len(wantIDs) == 0 || wantIDs[len(wantIDs)-1] != m.Trajectory {
					wantIDs = append(wantIDs, m.Trajectory)
				}
			}
			// CountOnly must equal the occurrence total.
			r, err := ix.Search(ctx, Query{Path: path, Kind: CountOnly})
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := r.Count(); n != len(want) {
				t.Fatalf("shards=%d q%d: CountOnly = %d, brute force %d", shards, qi, n, len(want))
			}
			for _, limit := range []int{0, 1, 3, 10, 1 << 20} {
				hits := searchHits(t, ix, Query{Path: path, Kind: Occurrences, Limit: limit})
				exp := want
				if limit > 0 && len(exp) > limit {
					exp = exp[:limit]
				}
				if len(hits) != len(exp) {
					t.Fatalf("shards=%d q%d limit=%d: %d hits, want %d", shards, qi, limit, len(hits), len(exp))
				}
				for i := range hits {
					if hits[i].Match != exp[i] {
						t.Fatalf("shards=%d q%d limit=%d: hit %d = %+v, want %+v",
							shards, qi, limit, i, hits[i].Match, exp[i])
					}
				}
				tids := searchHits(t, ix, Query{Path: path, Kind: Trajectories, Limit: limit})
				expIDs := wantIDs
				if limit > 0 && len(expIDs) > limit {
					expIDs = expIDs[:limit]
				}
				if len(tids) != len(expIDs) {
					t.Fatalf("shards=%d q%d limit=%d: %d trajectories, want %d",
						shards, qi, limit, len(tids), len(expIDs))
				}
				for i := range tids {
					if tids[i].Trajectory != expIDs[i] || tids[i].Offset != -1 {
						t.Fatalf("shards=%d q%d limit=%d: trajectory hit %d = %+v, want id %d offset -1",
							shards, qi, limit, i, tids[i], expIDs[i])
					}
				}
			}
		}
	}
}

// TestSearchTemporalDifferential pins interval-constrained Search
// (all three kinds) against brute force over monolithic and sharded
// temporal indexes.
func TestSearchTemporalDifferential(t *testing.T) {
	trajs, times := timedCorpus(5)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		for qi, path := range queryPaths(trajs) {
			all := bruteMatches(trajs, path)
			for ii, iv := range testIntervals(times) {
				var want []Hit
				var wantIDs []Hit
				for _, m := range all {
					at := times[m.Trajectory][m.Offset]
					if at < iv[0] || at > iv[1] {
						continue
					}
					want = append(want, Hit{Match: m, EnteredAt: at})
					if len(wantIDs) == 0 || wantIDs[len(wantIDs)-1].Trajectory != m.Trajectory {
						wantIDs = append(wantIDs, Hit{Match: Match{Trajectory: m.Trajectory, Offset: -1}, EnteredAt: at})
					}
				}
				q := Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}}
				r, err := tix.Search(ctx, Query{Path: q.Path, Interval: q.Interval, Kind: CountOnly})
				if err != nil {
					t.Fatal(err)
				}
				if n, _ := r.Count(); n != len(want) {
					t.Fatalf("shards=%d q%d iv%d: CountOnly = %d, brute force %d", shards, qi, ii, n, len(want))
				}
				for _, limit := range []int{0, 1, 4} {
					rq := q
					rq.Kind, rq.Limit = Occurrences, limit
					res, err := tix.Search(ctx, rq)
					if err != nil {
						t.Fatal(err)
					}
					hits := drain(t, res)
					exp := want
					if limit > 0 && len(exp) > limit {
						exp = exp[:limit]
					}
					if len(hits) != len(exp) {
						t.Fatalf("shards=%d q%d iv%d limit=%d: %d hits, want %d",
							shards, qi, ii, limit, len(hits), len(exp))
					}
					for i := range hits {
						if hits[i] != exp[i] {
							t.Fatalf("shards=%d q%d iv%d limit=%d: hit %d = %+v, want %+v",
								shards, qi, ii, limit, i, hits[i], exp[i])
						}
					}
					rq.Kind = Trajectories
					res, err = tix.Search(ctx, rq)
					if err != nil {
						t.Fatal(err)
					}
					tids := drain(t, res)
					expIDs := wantIDs
					if limit > 0 && len(expIDs) > limit {
						expIDs = expIDs[:limit]
					}
					if len(tids) != len(expIDs) {
						t.Fatalf("shards=%d q%d iv%d limit=%d: %d trajectories, want %d",
							shards, qi, ii, limit, len(tids), len(expIDs))
					}
					for i := range tids {
						if tids[i] != expIDs[i] {
							t.Fatalf("shards=%d q%d iv%d limit=%d: trajectory hit %d = %+v, want %+v",
								shards, qi, ii, limit, i, tids[i], expIDs[i])
						}
					}
				}
			}
		}
	}
}

// TestSearchLimitRule pins the unified limit semantics at the library
// layer: 0 means unlimited, negative is ErrBadQuery — for every kind,
// spatial and temporal.
func TestSearchLimitRule(t *testing.T) {
	trajs, times := timedCorpus(9)
	tix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := trajs[0][:2]
	for _, kind := range []Kind{Occurrences, Trajectories, CountOnly} {
		if _, err := tix.Search(ctx, Query{Path: path, Kind: kind, Limit: -1}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("kind %v limit -1: err = %v, want ErrBadQuery", kind, err)
		}
		iv := &Interval{From: 0, To: 1 << 60}
		if _, err := tix.Search(ctx, Query{Path: path, Interval: iv, Kind: kind, Limit: -1}); !errors.Is(err, ErrBadQuery) {
			t.Fatalf("kind %v interval limit -1: err = %v, want ErrBadQuery", kind, err)
		}
	}
	// Limit 0 returns everything.
	want := bruteMatches(trajs, path)
	hits := searchHits(t, tix.Index, Query{Path: path, Kind: Occurrences, Limit: 0})
	if len(hits) != len(want) {
		t.Fatalf("limit 0 returned %d hits, want all %d", len(hits), len(want))
	}
	// Unknown kind is rejected too.
	if _, err := tix.Search(ctx, Query{Path: path, Kind: Kind(99)}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("unknown kind: err = %v, want ErrBadQuery", err)
	}
	// Interval queries are accepted exactly when the stores are there:
	// the embedded Index of a temporal index carries them, a spatial
	// build does not.
	if _, err := tix.Index.Search(ctx, Query{Path: path, Interval: &Interval{From: 0, To: 1}}); err != nil {
		t.Fatalf("interval on the embedded Index of a temporal index: %v", err)
	}
	spatial, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatial.Search(ctx, Query{Path: path, Interval: &Interval{From: 0, To: 1}}); !errors.Is(err, ErrNoTimestamps) {
		t.Fatalf("interval on spatial index: err = %v, want ErrNoTimestamps", err)
	}
}

// TestSearchCursorResume pins the paging contract: following cursors
// page by page reproduces the unpaged stream exactly, for every kind,
// spatial and temporal, monolithic and sharded; and a cursor taken
// mid-iteration resumes with the exact suffix.
func TestSearchCursorResume(t *testing.T) {
	trajs, times := timedCorpus(13)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := times[4][0]-2000, times[4][0]+8000
		queries := []Query{
			{Path: trajs[4][:2], Kind: Occurrences},
			{Path: trajs[4][:2], Kind: Trajectories},
			{Path: trajs[4][:2], Interval: &Interval{From: lo, To: hi}, Kind: Occurrences},
			{Path: trajs[4][:2], Interval: &Interval{From: lo, To: hi}, Kind: Trajectories},
		}
		for qi, q := range queries {
			res, err := tix.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			full := drain(t, res)
			if res.Cursor() != "" {
				t.Fatalf("shards=%d q%d: exhausted stream still hands out a cursor", shards, qi)
			}
			// Page through with cursors at several page sizes.
			for _, pageSize := range []int{1, 2, 3} {
				var paged []Hit
				cursor := ""
				for page := 0; ; page++ {
					pq := q
					pq.Limit, pq.Cursor = pageSize, cursor
					r, err := tix.Search(ctx, pq)
					if err != nil {
						t.Fatal(err)
					}
					hits := drain(t, r)
					paged = append(paged, hits...)
					cursor = r.Cursor()
					if cursor == "" {
						break
					}
					if page > len(full)+2 {
						t.Fatalf("shards=%d q%d page size %d: cursor chain does not terminate", shards, qi, pageSize)
					}
				}
				if len(paged) != len(full) {
					t.Fatalf("shards=%d q%d page size %d: %d paged hits, want %d",
						shards, qi, pageSize, len(paged), len(full))
				}
				for i := range paged {
					if paged[i] != full[i] {
						t.Fatalf("shards=%d q%d page size %d: paged[%d] = %+v, want %+v",
							shards, qi, pageSize, i, paged[i], full[i])
					}
				}
			}
			// Mid-iteration break: the cursor resumes the exact suffix.
			if len(full) >= 2 {
				res, err := tix.Search(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				var taken int
				for _, herr := range res.All() {
					if herr != nil {
						t.Fatal(herr)
					}
					taken++
					if taken == len(full)/2 {
						break
					}
				}
				rq := q
				rq.Cursor = res.Cursor()
				r2, err := tix.Search(ctx, rq)
				if err != nil {
					t.Fatal(err)
				}
				suffix := drain(t, r2)
				want := full[taken:]
				if len(suffix) != len(want) {
					t.Fatalf("shards=%d q%d: resumed suffix has %d hits, want %d", shards, qi, len(suffix), len(want))
				}
				for i := range suffix {
					if suffix[i] != want[i] {
						t.Fatalf("shards=%d q%d: suffix[%d] = %+v, want %+v", shards, qi, i, suffix[i], want[i])
					}
				}
			}
		}
	}
}

// TestSearchBadCursor pins cursor validation: garbage tokens and
// tokens minted for a different query shape are ErrBadCursor.
func TestSearchBadCursor(t *testing.T) {
	trajs := shardedTestCorpus(t)
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := trajs[0][:2]
	if _, err := ix.Search(ctx, Query{Path: path, Cursor: "!!not base64!!"}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("garbage cursor: err = %v, want ErrBadCursor", err)
	}
	// Token minted for a different path.
	other := Query{Path: trajs[1][:3], Kind: Occurrences}
	token := other.CursorAfter(Hit{Match: Match{Trajectory: 1, Offset: 0}})
	if _, err := ix.Search(ctx, Query{Path: path, Cursor: token}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("foreign cursor: err = %v, want ErrBadCursor", err)
	}
	// Token minted for a different kind of the same path.
	tq := Query{Path: path, Kind: Trajectories}
	token = tq.CursorAfter(Hit{Match: Match{Trajectory: 1, Offset: -1}})
	if _, err := ix.Search(ctx, Query{Path: path, Kind: Occurrences, Cursor: token}); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("cross-kind cursor: err = %v, want ErrBadCursor", err)
	}
}

// TestCursorFingerprintSelfDelimiting is the regression test for a
// shape-confusion bug: without an interval-presence flag and a path
// length prefix in the fingerprint, a spatial query's path bytes can
// mimic another query's interval bounds, letting a foreign cursor
// validate. These pairs hash identically under a flat concatenation.
func TestCursorFingerprintSelfDelimiting(t *testing.T) {
	pairs := [][2]Query{
		{
			// Path entries [1,0,2,0,7] spell the same LE bytes as
			// From=1, To=2 followed by path [7] when fields are merely
			// concatenated.
			{Path: []uint32{1, 0, 2, 0, 7}, Kind: Occurrences},
			{Path: []uint32{7}, Interval: &Interval{From: 1, To: 2}, Kind: Occurrences},
		},
		{
			{Path: []uint32{0}, Kind: Occurrences},
			{Path: []uint32{0, 0}, Kind: Occurrences},
		},
		{
			{Path: []uint32{5}, Interval: &Interval{From: 0, To: 0}, Kind: Occurrences},
			{Path: []uint32{0, 0, 0, 0, 5}, Kind: Occurrences},
		},
	}
	for i, p := range pairs {
		if p[0].fingerprint() == p[1].fingerprint() {
			t.Errorf("pair %d: fingerprints collide across query shapes (%+v vs %+v)", i, p[0], p[1])
		}
		token := p[0].CursorAfter(Hit{Match: Match{Trajectory: 3, Offset: 1}})
		q := p[1]
		q.Cursor = token
		if _, _, _, err := q.decodeCursor(); !errors.Is(err, ErrBadCursor) {
			t.Errorf("pair %d: foreign cursor accepted (err = %v)", i, err)
		}
	}
}

// denseTimedCorpus generates a corpus over a small road network, so
// individual edges occur many times — the regime where early stopping
// of timestamp decoding is observable.
func denseTimedCorpus(seed int64) ([][]uint32, [][]int64) {
	cfg := trajgen.Config{GridW: 5, GridH: 5, NumTrajs: 200, MeanLen: 30, Seed: seed}
	d := trajgen.MOGen(cfg)
	rng := rand.New(rand.NewSource(seed))
	times := make([][]int64, len(d.Trajs))
	for k, tr := range d.Trajs {
		col := make([]int64, len(tr))
		t := rng.Int63n(86400)
		for i := range col {
			col[i] = t
			t += 10 + rng.Int63n(30)
		}
		times[k] = col
	}
	return d.Trajs, times
}

// frequentEdge returns the most frequent single-edge path.
func frequentEdge(trajs [][]uint32) []uint32 {
	freq := map[uint32]int{}
	for _, tr := range trajs {
		for _, e := range tr {
			freq[e]++
		}
	}
	var best uint32
	bestN := -1
	for e, n := range freq {
		if n > bestN || (n == bestN && e < best) {
			best, bestN = e, n
		}
	}
	return []uint32{best}
}

// atSteps sums the decode counters across a temporal index's stores.
func atSteps(tix *TemporalIndex) int64 {
	var n int64
	for _, sh := range tix.shards {
		n += sh.ts.AtSteps()
	}
	return n
}

func resetAtSteps(tix *TemporalIndex) {
	for _, sh := range tix.shards {
		sh.ts.ResetAtSteps()
	}
}

// TestSearchCancellationStopsDecoding is the streaming-semantics
// acceptance test: cancelling the context mid-iteration stops the
// shard-side timestamp decoding, observed through the tempo AtSteps
// instrumentation counters.
func TestSearchCancellationStopsDecoding(t *testing.T) {
	trajs, times := denseTimedCorpus(21)
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		// A frequent path with the widest interval: many hits, every one
		// needing a timestamp probe.
		path := frequentEdge(trajs)
		q := Query{Path: path, Interval: &Interval{From: 0, To: 1 << 62}, Kind: Occurrences}

		// Baseline: a full drain's decode work.
		resetAtSteps(tix)
		full := 0
		r, err := tix.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, herr := range r.All() {
			if herr != nil {
				t.Fatal(herr)
			}
			full++
		}
		fullSteps := atSteps(tix)
		if full < 8 {
			t.Skipf("corpus gave only %d hits; need more to observe early stop", full)
		}

		// Cancelled run: consume 2 hits, cancel, expect the stream to
		// fail and the decode counters to freeze well short of the
		// full-drain total.
		resetAtSteps(tix)
		ctx, cancel := context.WithCancel(context.Background())
		r, err = tix.Search(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		var got int
		var streamErr error
		for _, herr := range r.All() {
			if herr != nil {
				streamErr = herr
				break
			}
			got++
			if got == 2 {
				cancel()
			}
		}
		if !errors.Is(streamErr, context.Canceled) {
			t.Fatalf("shards=%d: stream error = %v, want context.Canceled", shards, streamErr)
		}
		frozen := atSteps(tix)
		if frozen >= fullSteps {
			t.Fatalf("shards=%d: cancelled run decoded %d steps, full drain %d — no early stop",
				shards, frozen, fullSteps)
		}
		// The counters must not advance once the stream has failed.
		for _, herr := range r.All() {
			if herr == nil {
				t.Fatal("failed stream yielded a hit")
			}
		}
		if after := atSteps(tix); after != frozen {
			t.Fatalf("shards=%d: decode counter advanced after cancellation: %d -> %d", shards, frozen, after)
		}
		cancel()
	}
}

// TestSearchLimitBoundsDecoding pins the lazy-probe property: with a
// small limit on a wide interval, the number of timestamp decodes is
// bounded by the hits actually yielded (plus per-shard lookahead), not
// by the occurrence count.
func TestSearchLimitBoundsDecoding(t *testing.T) {
	trajs, times := denseTimedCorpus(27)
	opts := DefaultOptions()
	opts.Shards = 3
	tix, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := frequentEdge(trajs)
	total, err := searchCount(tix, Query{Path: path, Interval: &Interval{From: 0, To: 1 << 62}, Kind: CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if total < 20 {
		t.Skipf("only %d occurrences; need more to observe bounded decoding", total)
	}
	q := Query{Path: path, Interval: &Interval{From: 0, To: 1 << 62}, Kind: Occurrences, Limit: 3}
	resetAtSteps(tix)
	r, err := tix.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if hits := drain(t, r); len(hits) != 3 {
		t.Fatalf("limit 3 yielded %d hits", len(hits))
	}
	// Every probe decodes at most BlockSize varints; the probe count is
	// limit + shards (each shard primes one head) at worst since the
	// widest interval rejects nothing.
	maxProbes := int64(3 + tix.Shards())
	if steps := atSteps(tix); steps > maxProbes*int64(tempo.BlockSize) {
		t.Fatalf("limit-3 search decoded %d steps over %d occurrences; want <= %d",
			steps, total, maxProbes*int64(tempo.BlockSize))
	}
}
