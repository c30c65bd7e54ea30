package engine

import (
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cinct"
	"cinct/internal/querygen"
	"cinct/internal/trajgen"
)

func testCorpus(seed int64, n int) [][]uint32 {
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: n, MeanLen: 16, Seed: seed}
	return trajgen.Singapore2(cfg).Trajs
}

func testTimes(trajs [][]uint32) [][]int64 {
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		t := int64(1000 * k)
		for i := range col {
			col[i] = t
			t += int64(10 + (k+i)%30)
		}
		times[k] = col
	}
	return times
}

// writeIndexes persists a spatial (sharded) and a temporal index for
// one corpus into dir.
func writeIndexes(t *testing.T, dir string, trajs [][]uint32) {
	t.Helper()
	opts := cinct.DefaultOptions()
	opts.Shards = 3
	ix, err := cinct.Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "spatial"+ExtSpatial), ix.Save)
	tix, err := cinct.BuildTemporal(trajs, testTimes(trajs), nil)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "temporal"+ExtTemporal), tix.Save)
}

func saveTo(t *testing.T, path string, save func(w io.Writer) (int64, error)) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// serveIndex saves ix to a file under t.TempDir() and loads it into e
// as name: every index an engine serves is a file.
func serveIndex(t *testing.T, e *Engine, name string, ix *cinct.Index) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+ExtSpatial)
	saveTo(t, path, ix.Save)
	if err := e.Load(name, path); err != nil {
		t.Fatal(err)
	}
}

func TestEngineLifecycle(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(1, 150)
	writeIndexes(t, dir, trajs)

	eng := New(Options{})
	defer eng.CloseAll()
	names, err := eng.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Names(); !reflect.DeepEqual(got, []string{"spatial", "temporal"}) {
		t.Fatalf("Names() = %v (OpenDir returned %v)", got, names)
	}

	ctx := context.Background()
	path := trajs[0][:2]
	want := querygen.NaiveCount(trajs, path)
	for _, name := range []string{"spatial", "temporal"} {
		if got, err := searchCount(ctx, eng, name, cinct.Query{Path: path, Kind: cinct.CountOnly}); err != nil || got != want {
			t.Fatalf("Count(%s) = %d, %v; want %d", name, got, err, want)
		}
	}

	// Temporal-only query routing.
	if _, err := search(ctx, eng, "spatial", cinct.Query{Path: path, Interval: &cinct.Interval{From: 0, To: 1 << 60}}); !errors.Is(err, cinct.ErrNoTimestamps) {
		t.Fatalf("FindInInterval on spatial index: %v, want cinct.ErrNoTimestamps", err)
	}
	hits, err := search(ctx, eng, "temporal", cinct.Query{Path: path, Interval: &cinct.Interval{From: 0, To: 1 << 60}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != want {
		t.Fatalf("FindInInterval over all time: %d hits, want %d", len(hits), want)
	}

	// Out-of-range IDs become errors, not panics.
	if _, err := eng.Trajectory(ctx, "spatial", len(trajs)); !errors.Is(err, cinct.ErrOutOfRange) {
		t.Fatalf("Trajectory(out of range): %v, want cinct.ErrOutOfRange", err)
	}
	if _, err := eng.SubPath(ctx, "spatial", 0, 0, len(trajs[0])+5); !errors.Is(err, cinct.ErrOutOfRange) {
		t.Fatalf("SubPath(bad range): %v, want cinct.ErrOutOfRange", err)
	}

	// Unknown names and closed entries 404.
	if _, err := searchCount(ctx, eng, "nope", cinct.Query{Path: path, Kind: cinct.CountOnly}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Count(unknown) err = %v, want ErrNotFound", err)
	}
	if err := eng.Close("spatial"); err != nil {
		t.Fatal(err)
	}
	if _, err := searchCount(ctx, eng, "spatial", cinct.Query{Path: path, Kind: cinct.CountOnly}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Count(closed) err = %v, want ErrNotFound", err)
	}

	// A canceled context fails deterministically.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := searchCount(canceled, eng, "temporal", cinct.Query{Path: path, Kind: cinct.CountOnly}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count(canceled ctx) err = %v, want context.Canceled", err)
	}
}

// TestEngineReloadInvalidatesCache swaps the backing file under a
// loaded index and checks both the generation bump and that no stale
// cached answer survives the reload.
func TestEngineReloadInvalidatesCache(t *testing.T) {
	dir := t.TempDir()
	trajsA := testCorpus(1, 120)
	trajsB := testCorpus(2, 180) // different corpus → different answers
	file := filepath.Join(dir, "ix"+ExtSpatial)

	ixA, err := cinct.Build(trajsA, nil)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, file, ixA.Save)

	eng := New(Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	path := trajsA[0][:2]
	wantA := querygen.NaiveCount(trajsA, path)
	// Twice: the second call must be a cache hit.
	for i := 0; i < 2; i++ {
		if got, err := searchCount(ctx, eng, "ix", cinct.Query{Path: path, Kind: cinct.CountOnly}); err != nil || got != wantA {
			t.Fatalf("Count = %d, %v; want %d", got, err, wantA)
		}
	}
	if hits, _, _ := eng.CacheStats(); hits == 0 {
		t.Fatal("expected a cache hit on the repeated Count")
	}

	ixB, err := cinct.Build(trajsB, nil)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, file, ixB.Save)
	gen, err := eng.Reload("ix")
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("Reload returned generation %d, want 2", gen)
	}
	info, err := eng.Info("ix")
	if err != nil {
		t.Fatal(err)
	}
	if info.Generation != 2 {
		t.Fatalf("generation after reload = %d, want 2", info.Generation)
	}
	wantB := querygen.NaiveCount(trajsB, path)
	if got, err := searchCount(ctx, eng, "ix", cinct.Query{Path: path, Kind: cinct.CountOnly}); err != nil || got != wantB {
		t.Fatalf("Count after reload = %d, %v; want %d (stale pre-reload answer was %d)",
			got, err, wantB, wantA)
	}

	// Replacing a name via Load (not Reload) must also orphan cached
	// results: the new entry continues the old generation sequence.
	fileA := filepath.Join(dir, "re"+ExtSpatial)
	saveTo(t, fileA, ixA.Save)
	if err := eng.Load("re", fileA); err != nil {
		t.Fatal(err)
	}
	if got, err := searchCount(ctx, eng, "re", cinct.Query{Path: path, Kind: cinct.CountOnly}); err != nil || got != wantA {
		t.Fatalf("Count(re) = %d, %v; want %d", got, err, wantA)
	}
	saveTo(t, fileA, ixB.Save)
	if err := eng.Load("re", fileA); err != nil {
		t.Fatal(err)
	}
	if got, err := searchCount(ctx, eng, "re", cinct.Query{Path: path, Kind: cinct.CountOnly}); err != nil || got != wantB {
		t.Fatalf("Count(re) after Load replacement = %d, %v; want %d (stale answer was %d)",
			got, err, wantB, wantA)
	}
	reInfo, err := eng.Info("re")
	if err != nil {
		t.Fatal(err)
	}
	if reInfo.Generation != 2 {
		t.Fatalf("generation after Load replacement = %d, want 2", reInfo.Generation)
	}
}

// TestEngineTemporalCacheAndReload closes the one gap the temporal
// path used to have: interval queries must hit the LRU cache like
// every other op, distinct intervals must not collide, and a reload
// must orphan cached temporal answers.
func TestEngineTemporalCacheAndReload(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(4, 120)
	times := testTimes(trajs)
	file := filepath.Join(dir, "tix"+ExtTemporal)

	build := func(times [][]int64) {
		tix, err := cinct.BuildTemporal(trajs, times, nil)
		if err != nil {
			t.Fatal(err)
		}
		saveTo(t, file, tix.Save)
	}
	build(times)

	eng := New(Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	path := trajs[0][:2]
	from, to := int64(math.MinInt64), int64(math.MaxInt64)

	_, misses0, _ := cacheCounters(eng)
	first, err := search(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 {
		t.Fatal("expected temporal matches over all time")
	}
	hits0, misses1, _ := cacheCounters(eng)
	if misses1 != misses0+1 {
		t.Fatalf("first FindInInterval: misses %d -> %d, want one new miss", misses0, misses1)
	}
	again, err := search(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	hits1, misses2, _ := cacheCounters(eng)
	if hits1 != hits0+1 || misses2 != misses1 {
		t.Fatalf("repeated FindInInterval was not a cache hit (hits %d->%d, misses %d->%d)",
			hits0, hits1, misses1, misses2)
	}
	if !reflect.DeepEqual(again, first) {
		t.Fatal("cache hit returned a different answer")
	}

	// A different interval must be a different cache entry, not a
	// collision with the previous key.
	narrow, err := search(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: 0, To: 10}})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(narrow, first) {
		t.Fatal("narrow interval returned the all-time answer: cache key collision")
	}

	// CountInInterval caches too and agrees with the find.
	n, err := searchCount(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: from, To: to}, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(first) {
		t.Fatalf("CountInInterval = %d, FindInInterval returned %d", n, len(first))
	}
	hitsBefore, _, _ := cacheCounters(eng)
	if _, err := searchCount(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: from, To: to}, Kind: cinct.CountOnly}); err != nil {
		t.Fatal(err)
	}
	if hitsAfter, _, _ := cacheCounters(eng); hitsAfter != hitsBefore+1 {
		t.Fatal("repeated CountInInterval was not a cache hit")
	}

	// Reload with shifted timestamps: the generation bump must orphan
	// every cached temporal answer.
	const shift = int64(1) << 40
	shifted := make([][]int64, len(times))
	for k, col := range times {
		out := make([]int64, len(col))
		for i, at := range col {
			out[i] = at + shift
		}
		shifted[k] = out
	}
	build(shifted)
	if _, err := eng.Reload("tix"); err != nil {
		t.Fatal(err)
	}
	fresh, err := search(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: from, To: to}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(first) {
		t.Fatalf("after reload: %d matches, want %d", len(fresh), len(first))
	}
	if fresh[0].EnteredAt != first[0].EnteredAt+shift {
		t.Fatalf("after reload EnteredAt = %d, want %d: stale cached answer survived the reload",
			fresh[0].EnteredAt, first[0].EnteredAt+shift)
	}
	if n, err := searchCount(ctx, eng, "tix", cinct.Query{Path: path, Interval: &cinct.Interval{From: 0, To: shift - 1}, Kind: cinct.CountOnly}); err != nil || n != 0 {
		t.Fatalf("pre-shift interval after reload: %d, %v; want 0 (stale store?)", n, err)
	}
}

func cacheCounters(e *Engine) (hits, misses uint64, entries int) { return e.CacheStats() }

// TestSearchKeyNoCollision pins the cache-key contract: keys hold the
// query's canonical binary encoding, in which every field occupies a
// self-delimiting slot — so neighboring numeric fields can never merge
// into the same key, and any semantic difference (interval bounds,
// sign, limit, kind, cursor) yields a distinct key.
func TestSearchKeyNoCollision(t *testing.T) {
	mk := func(q cinct.Query) cacheKey {
		enc, err := q.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary(%+v): %v", q, err)
		}
		return cacheKey{binding: 1, gen: 1, query: string(enc)}
	}
	path := []uint32{1, 2}
	pairs := [][2]cinct.Query{
		{
			{Path: path, Interval: &cinct.Interval{From: 1, To: 23}},
			{Path: path, Interval: &cinct.Interval{From: 12, To: 3}},
		},
		{
			{Path: path, Interval: &cinct.Interval{From: -1, To: 1}},
			{Path: path, Interval: &cinct.Interval{From: 1, To: -1}},
		},
		{
			{Path: path, Kind: cinct.Occurrences, Limit: 12},
			{Path: path, Kind: cinct.Occurrences, Limit: 1},
		},
		{
			{Path: path, Kind: cinct.Occurrences},
			{Path: path, Kind: cinct.Trajectories},
		},
		{
			{Path: []uint32{1, 2, 3}},
			{Path: []uint32{12, 3}},
		},
	}
	for i, p := range pairs {
		if a, b := mk(p[0]), mk(p[1]); a == b {
			t.Errorf("pair %d: colliding cache keys %+v", i, a)
		}
	}
}

// TestRecoverQuery pins the engine-boundary panic contract for
// temporal queries: a panic surfacing from corrupt index state becomes
// cinct.ErrCorrupt instead of killing the goroutine.
func TestRecoverQuery(t *testing.T) {
	err := func() (err error) {
		defer recoverQuery(&err)
		panic("tempo: corrupt column")
	}()
	if !errors.Is(err, cinct.ErrCorrupt) {
		t.Fatalf("recovered err = %v, want cinct.ErrCorrupt", err)
	}
}

// TestEngineConcurrentSoak is the load test: many goroutines issue
// mixed Count/Find/SubPath against one cached Engine under -race,
// asserting every answer is identical to an uncached engine over the
// same index — cache hits must be indistinguishable from misses —
// while a reloader goroutine swaps generations underneath them.
func TestEngineConcurrentSoak(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(3, 200)
	opts := cinct.DefaultOptions()
	opts.Shards = 3
	ix, err := cinct.Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "soak"+ExtSpatial)
	saveTo(t, file, ix.Save)

	cached := New(Options{Workers: 4, CacheEntries: 64}) // small: forces eviction churn
	defer cached.CloseAll()
	uncached := New(Options{Workers: 4, CacheEntries: -1})
	defer uncached.CloseAll()
	for _, e := range []*Engine{cached, uncached} {
		if _, err := e.OpenDir(dir); err != nil {
			t.Fatal(err)
		}
	}

	// A small pool of queries so the cache actually gets hits.
	queries := querygen.New(trajs, 1, 4, 42).Draw(16)

	const (
		goroutines = 8
		iters      = 400
	)
	ctx := context.Background()
	var wg, wgReload sync.WaitGroup
	errc := make(chan error, goroutines+1)
	stopReload := make(chan struct{})
	wgReload.Add(1)
	go func() { // reloader: generation churn during the soak
		defer wgReload.Done()
		for {
			select {
			case <-stopReload:
				return
			default:
			}
			if _, err := cached.Reload("soak"); err != nil {
				errc <- err
				return
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				path := queries[rng.Intn(len(queries))]
				switch i % 4 {
				case 0:
					got, err := searchCount(ctx, cached, "soak", cinct.Query{Path: path, Kind: cinct.CountOnly})
					if err != nil {
						errc <- err
						return
					}
					want, err := searchCount(ctx, uncached, "soak", cinct.Query{Path: path, Kind: cinct.CountOnly})
					if err != nil {
						errc <- err
						return
					}
					if got != want {
						t.Errorf("soak Count(%v) = %d, want %d", path, got, want)
						return
					}
				case 1:
					limit := rng.Intn(5) // includes 0 = all
					got, err := search(ctx, cached, "soak", cinct.Query{Path: path, Limit: limit})
					if err != nil {
						errc <- err
						return
					}
					want, err := search(ctx, uncached, "soak", cinct.Query{Path: path, Limit: limit})
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("soak Find(%v, %d) = %v, want %v", path, limit, got, want)
						return
					}
				case 2:
					id := rng.Intn(len(trajs))
					to := len(trajs[id])
					from := rng.Intn(to)
					got, err := cached.SubPath(ctx, "soak", id, from, to)
					if err != nil {
						errc <- err
						return
					}
					want := trajs[id][from:to]
					if !reflect.DeepEqual(got, want) {
						t.Errorf("soak SubPath(%d, %d, %d) = %v, want %v", id, from, to, got, want)
						return
					}
				case 3:
					// Streaming Search under reload churn: drain a bounded
					// page from the cached engine (live or replayed,
					// depending on what the generation bumps left behind)
					// and compare to the uncached engine.
					q := cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 1 + rng.Intn(4)}
					collect := func(e *Engine) ([]cinct.Hit, error) {
						r, err := e.Search(ctx, "soak", q)
						if err != nil {
							return nil, err
						}
						defer r.Close()
						var hits []cinct.Hit
						for h, herr := range r.All() {
							if herr != nil {
								return nil, herr
							}
							hits = append(hits, h)
						}
						return hits, nil
					}
					got, err := collect(cached)
					if err != nil {
						errc <- err
						return
					}
					want, err := collect(uncached)
					if err != nil {
						errc <- err
						return
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("soak Search(%v, %d) = %v, want %v", q.Path, q.Limit, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopReload) // then stop the reloader
	wgReload.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	hits, misses, _ := cached.CacheStats()
	if hits == 0 {
		t.Fatalf("soak produced no cache hits (misses = %d); the cache path went untested", misses)
	}
	t.Logf("soak: %d cache hits, %d misses", hits, misses)
}
