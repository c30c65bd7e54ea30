package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cinct"
	"cinct/internal/metrics"
)

// TestEngineMetricsExactness soaks Search/Append/Compact concurrently
// (run under -race) and then checks the registry against ground truth:
// every accepted query is counted exactly once per kind, every query
// closes exactly one latency/cost account, cache hits and misses
// partition the query stream, append rows match what was ingested, and
// the pool gauge returns to zero once the streams drain.
func TestEngineMetricsExactness(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(31, 150)
	writeIndexes(t, dir, trajs)

	e := New(Options{})
	reg := e.Metrics()
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}

	const (
		searchers   = 6
		perSearcher = 40
		appenders   = 2
		perAppender = 25
		compactions = 3
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, searchers+appenders+1)

	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSearcher; i++ {
				tr := trajs[(g*perSearcher+i)%len(trajs)]
				path := tr[:min(2, len(tr))]
				q := cinct.Query{Path: path, Kind: cinct.CountOnly}
				if i%2 == 1 {
					q = cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 3}
				}
				r, err := e.Search(ctx, "spatial", q)
				if err != nil {
					errc <- err
					return
				}
				if q.Kind == cinct.CountOnly {
					_, err = r.Count()
				} else {
					for _, herr := range r.All() {
						err = herr
					}
				}
				r.Close()
				if err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				if _, err := e.Append(ctx, "spatial", [][]uint32{{1, 2, 3}}, nil); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < compactions; i++ {
			if _, err := e.Compact(ctx, "spatial", false); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Handles re-registered with the same shape are the engine's own.
	total := searchers * perSearcher
	counts := reg.CounterVec("cinct_queries_total", "", "kind")
	gotCount := counts.With("count").Value()
	gotOcc := counts.With("occurrences").Value()
	if gotCount+gotOcc != int64(total) {
		t.Fatalf("cinct_queries_total = %d count + %d occurrences, want %d total", gotCount, gotOcc, total)
	}
	if want := int64(searchers * (perSearcher / 2)); gotOcc != want {
		t.Fatalf("cinct_queries_total{kind=occurrences} = %d, want %d", gotOcc, want)
	}
	hits := reg.Counter("cinct_cache_hits_total", "").Value()
	misses := reg.Counter("cinct_cache_misses_total", "").Value()
	if hits+misses != int64(total) {
		t.Fatalf("cache hits %d + misses %d != %d queries", hits, misses, total)
	}
	lat := reg.Histogram("cinct_query_seconds", "", metrics.ExpBuckets(0.0001, 4, 10))
	if lat.Count() != uint64(total) {
		t.Fatalf("latency observations = %d, want %d (exactly one account per query)", lat.Count(), total)
	}
	cost := reg.Histogram("cinct_query_cost_steps", "", metrics.ExpBuckets(1, 8, 10))
	if cost.Count() != uint64(total) || cost.Sum() <= 0 {
		t.Fatalf("cost observations = %d (sum %v), want %d with positive sum", cost.Count(), cost.Sum(), total)
	}
	if rows := reg.Counter("cinct_append_rows_total", "").Value(); rows != appenders*perAppender {
		t.Fatalf("cinct_append_rows_total = %d, want %d", rows, appenders*perAppender)
	}
	if errs := reg.Counter("cinct_query_errors_total", "").Value(); errs != 0 {
		t.Fatalf("cinct_query_errors_total = %d, want 0", errs)
	}
	if inflight, capacity := e.PoolStats(); inflight != 0 || capacity < 1 {
		t.Fatalf("PoolStats after drain = (%d, %d), want (0, >=1)", inflight, capacity)
	}

	// The scrape surface agrees with the handles.
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, want := range []string{
		"# TYPE cinct_queries_total counter",
		fmt.Sprintf("cinct_queries_total{kind=\"occurrences\"} %d", gotOcc),
		fmt.Sprintf("cinct_query_seconds_count %d", total),
		"cinct_pool_inflight 0",
		fmt.Sprintf("cinct_append_rows_total %d", appenders*perAppender),
		"# TYPE cinct_compaction_seconds histogram",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

// TestCacheStatsMatchMetrics pins that CacheStats (what /v1/indexes
// reports) and the cinct_cache_* series (what /metrics scrapes) are
// one account, with the cache off as well as on: every Search is a hit
// or a miss in both.
func TestCacheStatsMatchMetrics(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(41, 60)
	writeIndexes(t, dir, trajs)
	for _, c := range []struct {
		entries            int
		wantHits, wantMiss uint64
	}{
		{-1, 0, 6}, // off: every lookup misses
		{0, 3, 3},  // default: each repeat hits
	} {
		e := New(Options{CacheEntries: c.entries})
		if _, err := e.OpenDir(dir); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for range 2 {
			for _, tr := range trajs[:3] {
				if _, err := searchCount(ctx, e, "spatial", cinct.Query{Path: tr[:1], Kind: cinct.CountOnly}); err != nil {
					t.Fatal(err)
				}
			}
		}
		hits, misses, entries := e.CacheStats()
		if hits != c.wantHits || misses != c.wantMiss {
			t.Errorf("CacheEntries %d: CacheStats = %d hits, %d misses; want %d, %d", c.entries, hits, misses, c.wantHits, c.wantMiss)
		}
		var buf bytes.Buffer
		if _, err := e.Metrics().WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			fmt.Sprintf("cinct_cache_hits_total %d\n", hits),
			fmt.Sprintf("cinct_cache_misses_total %d\n", misses),
			fmt.Sprintf("cinct_cache_entries %d\n", entries),
		} {
			if !strings.Contains(buf.String(), want) {
				t.Errorf("CacheEntries %d: scrape lacks %q:\n%s", c.entries, want, buf.String())
			}
		}
		e.CloseAll()
	}
}

// TestSaturatedPoolQueues pins the worker pool's overload contract:
// with every slot held, a query of any kind (a count, an occurrences
// find, an interval find on a temporal index) queues for a slot until
// its context expires. The pool never sheds; failing fast is the
// server gate's job.
func TestSaturatedPoolQueues(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(37, 100)
	writeIndexes(t, dir, trajs)

	// One worker, cache off so every Search needs a slot.
	e := New(Options{Workers: 1, CacheEntries: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := trajs[0][:1]

	// Occupy the only slot with an undrained live stream.
	hold, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	for _, c := range []struct {
		name, index string
		q           cinct.Query
	}{
		{"count", "spatial", cinct.Query{Path: path, Kind: cinct.CountOnly}},
		{"occurrences", "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences}},
		{"interval", "temporal", cinct.Query{Path: path, Interval: &cinct.Interval{From: 0, To: 1 << 60}}},
	} {
		short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
		_, err := e.Search(short, c.index, c.q)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s Search on saturated pool: err = %v, want DeadlineExceeded (queued, not shed)", c.name, err)
		}
	}

	// Releasing the slot lets the same query through.
	hold.Close()
	r, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatalf("Search after release: %v", err)
	}
	r.Close()
}

// TestSlowQueryLog checks that queries crossing the SlowQuery
// threshold are counted and logged with their full QueryStats.
func TestSlowQueryLog(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(41, 100)
	writeIndexes(t, dir, trajs)

	var mu sync.Mutex
	var log bytes.Buffer
	e := New(Options{
		SlowQuery: time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			fmt.Fprintf(&log, format+"\n", args...)
			mu.Unlock()
		},
	})
	reg := e.Metrics()
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	r, err := e.Search(context.Background(), "spatial", cinct.Query{Path: trajs[0][:2], Kind: cinct.Occurrences, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
	}
	r.Close()
	if slow := reg.Counter("cinct_slow_queries_total", "").Value(); slow < 1 {
		t.Fatalf("cinct_slow_queries_total = %d, want >= 1", slow)
	}
	mu.Lock()
	got := log.String()
	mu.Unlock()
	for _, want := range []string{"slow query", "kind=occurrences", "stats{lf=", "cost="} {
		if !strings.Contains(got, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, got)
		}
	}
}
