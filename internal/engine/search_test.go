package engine

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"cinct"
)

// drainSearch runs one engine Search and collects the stream.
func drainSearch(t *testing.T, e *Engine, name string, q cinct.Query) ([]cinct.Hit, string) {
	t.Helper()
	r, err := e.Search(context.Background(), name, q)
	if err != nil {
		t.Fatalf("Search(%+v): %v", q, err)
	}
	defer r.Close()
	var hits []cinct.Hit
	for h, herr := range r.All() {
		if herr != nil {
			t.Fatalf("Search(%+v) stream: %v", q, herr)
		}
		hits = append(hits, h)
	}
	return hits, r.Cursor()
}

// search runs q to the end of its stream — the call behind every
// assertion on a hit list. An empty stream is a nil slice.
func search(ctx context.Context, e *Engine, name string, q cinct.Query) ([]cinct.Hit, error) {
	r, err := e.Search(ctx, name, q)
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

// searchCount answers a CountOnly query.
func searchCount(ctx context.Context, e *Engine, name string, q cinct.Query) (int, error) {
	r, err := e.Search(ctx, name, q)
	if err != nil {
		return 0, err
	}
	return r.Count()
}

// TestEngineSearchCachesPages pins the single-entry-point cache
// contract: an identical Query replays the cached page (hit counters
// advance, results identical, including the resume cursor), a
// different Limit is a different key, and cursor-linked pages
// concatenate to the unpaged stream.
func TestEngineSearchCachesPages(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(17, 150)
	writeIndexes(t, dir, trajs)
	e := New(Options{})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	path := trajs[3][:2]

	q := cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 3}
	first, cur1 := drainSearch(t, e, "spatial", q)
	h0, m0, _ := e.CacheStats()
	second, cur2 := drainSearch(t, e, "spatial", q)
	h1, _, _ := e.CacheStats()
	if h1 <= h0 {
		t.Fatalf("second identical Search did not hit the cache (hits %d -> %d, misses %d)", h0, h1, m0)
	}
	if len(first) != len(second) || cur1 != cur2 {
		t.Fatalf("cache replay differs: %d/%d hits, cursors %q vs %q", len(first), len(second), cur1, cur2)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cache replay hit %d: %+v vs %+v", i, first[i], second[i])
		}
	}

	// Page through with cursors; the concatenation must equal the
	// unpaged stream.
	full, endCursor := drainSearch(t, e, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if endCursor != "" {
		t.Fatalf("exhausted unpaged stream still hands out cursor %q", endCursor)
	}
	var paged []cinct.Hit
	cursor := ""
	for {
		pq := cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 2, Cursor: cursor}
		hits, next := drainSearch(t, e, "spatial", pq)
		paged = append(paged, hits...)
		if next == "" {
			break
		}
		cursor = next
		if len(paged) > len(full)+2 {
			t.Fatal("cursor chain does not terminate")
		}
	}
	if len(paged) != len(full) {
		t.Fatalf("paged %d hits, unpaged %d", len(paged), len(full))
	}
	for i := range paged {
		if paged[i] != full[i] {
			t.Fatalf("paged[%d] = %+v, want %+v", i, paged[i], full[i])
		}
	}

	// CountOnly goes through the same cache.
	cq := cinct.Query{Path: path, Kind: cinct.CountOnly}
	r, err := e.Search(context.Background(), "spatial", cq)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	hits, _, _ := e.CacheStats()
	r2, err := e.Search(context.Background(), "spatial", cq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Count()
	if err != nil {
		t.Fatal(err)
	}
	if hits2, _, _ := e.CacheStats(); hits2 <= hits {
		t.Fatal("repeated CountOnly Search did not hit the cache")
	}
	if got != want {
		t.Fatalf("cached CountOnly = %d, want %d", got, want)
	}
}

// TestEngineSearchLimitRule pins the unified limit semantics at the
// engine layer: negative limits are cinct.ErrBadQuery for every kind,
// and interval queries on spatial indexes are ErrNotTemporal.
func TestEngineSearchLimitRule(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(19, 80)
	writeIndexes(t, dir, trajs)
	e := New(Options{})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := trajs[0][:2]
	for _, kind := range []cinct.Kind{cinct.Occurrences, cinct.Trajectories, cinct.CountOnly} {
		if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: kind, Limit: -1}); !errors.Is(err, cinct.ErrBadQuery) {
			t.Fatalf("kind %v limit -1: err = %v, want ErrBadQuery", kind, err)
		}
	}
	iv := &cinct.Interval{From: 0, To: 1}
	if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Interval: iv}); !errors.Is(err, ErrNotTemporal) {
		t.Fatalf("interval on spatial index: err = %v, want ErrNotTemporal", err)
	}
	if _, err := e.Search(ctx, "nosuch", cinct.Query{Path: path}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown index: err = %v, want ErrNotFound", err)
	}
	if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Cursor: "garbage"}); !errors.Is(err, cinct.ErrBadCursor) {
		t.Fatalf("bad cursor: err = %v, want ErrBadCursor", err)
	}
}

// TestEngineSearchCloseReleasesSlot pins the worker-pool contract for
// abandoned streams: a live Results holds one slot; Close hands it
// back, and only then can the next query run on a one-worker engine.
func TestEngineSearchCloseReleasesSlot(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(23, 80)
	writeIndexes(t, dir, trajs)
	e := New(Options{Workers: 1, CacheEntries: -1}) // cache off: every Search goes live
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	path := trajs[0][:1]
	r, err := e.Search(context.Background(), "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	// Consume one hit, then abandon without draining.
	for _, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		break
	}
	// The slot is still held: a second query must time out.
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := e.Search(short, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second Search with held slot: err = %v, want DeadlineExceeded", err)
	}
	r.Close()
	// Close is terminal: resuming the closed handle must not restart
	// index work without a worker slot.
	for range r.All() {
		t.Fatal("closed Results yielded a hit")
	}
	r2, err := e.Search(context.Background(), "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatalf("Search after Close: %v", err)
	}
	defer r2.Close()
	if _, err := r2.Count(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorAcrossRestart pins the load-signature half of the cursor
// identity: every process starts its epochs at 1, so across a restart
// only sig tells an unchanged file from a rebuilt one. A cursor minted
// by one Engine resumes on a second Engine opened over the same
// directory with the exact continuation of the undivided stream, and
// fails ErrStaleCursor once the files hold a different corpus.
func TestCursorAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(31, 80)
	writeIndexes(t, dir, trajs)
	open := func() *Engine {
		e := New(Options{})
		t.Cleanup(e.CloseAll)
		if _, err := e.OpenDir(dir); err != nil {
			t.Fatal(err)
		}
		return e
	}
	first, second := open(), open()
	q := cinct.Query{Path: trajs[0][:1], Kind: cinct.Occurrences}
	cursors := make(map[string]string)
	for _, name := range []string{"spatial", "temporal"} {
		full, _ := drainSearch(t, first, name, q)
		if len(full) < 3 {
			t.Fatalf("%s: corpus gave only %d hits; need >= 3", name, len(full))
		}
		paged := q
		paged.Limit = 2
		page, cursor := drainSearch(t, first, name, paged)
		if cursor == "" {
			t.Fatalf("%s: bounded page handed out no cursor", name)
		}
		cursors[name] = cursor

		resume := q
		resume.Cursor = cursor
		rest, end := drainSearch(t, second, name, resume)
		if got := append(page, rest...); !slices.Equal(got, full) || end != "" {
			t.Fatalf("%s: resume on a second engine = %v (cursor %q), want %v", name, got, end, full)
		}
	}

	writeIndexes(t, dir, append(trajs[:len(trajs):len(trajs)], []uint32{1, 2, 3, 4}))
	rebuilt := open()
	for name, cursor := range cursors {
		resume := q
		resume.Cursor = cursor
		if _, err := rebuilt.Search(context.Background(), name, resume); !errors.Is(err, ErrStaleCursor) {
			t.Fatalf("%s: cursor over a rebuilt file: err = %v, want ErrStaleCursor", name, err)
		}
	}
}
