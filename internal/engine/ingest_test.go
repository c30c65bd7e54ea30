package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cinct"
)

func drainEngine(t *testing.T, e *Engine, name string, q cinct.Query) ([]cinct.Hit, string) {
	t.Helper()
	r, err := e.Search(context.Background(), name, q)
	if err != nil {
		t.Fatalf("Search(%+v): %v", q, err)
	}
	defer r.Close()
	var hits []cinct.Hit
	for h, herr := range r.All() {
		if herr != nil {
			t.Fatalf("stream: %v", herr)
		}
		hits = append(hits, h)
	}
	return hits, r.Cursor()
}

// TestEngineAppendSealPersist drives the whole engine write path: an
// append is immediately queryable (with the cache invalidated by the
// generation bump), a seal compacts without changing any answer, and
// the sealed state lands in the backing file so a Reload serves the
// ingested rows.
func TestEngineAppendSealPersist(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(7, 60)
	writeIndexes(t, dir, trajs)
	e := New(Options{SealThreshold: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	marker := []uint32{201, 202, 203}
	before, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if before != 0 {
		t.Fatalf("marker path pre-exists: count %d", before)
	}

	batch := [][]uint32{append([]uint32{9}, marker...), marker}
	times := [][]int64{{5, 10, 20, 30}, {100, 110, 120}}
	res, err := e.Append(ctx, "temporal", batch, times)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstID != len(trajs) || res.Appended != 2 || res.Delta != 2 {
		t.Fatalf("AppendResult = %+v, want firstId %d appended 2 delta 2", res, len(trajs))
	}

	// The cached zero-count must be orphaned by the generation bump.
	after, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if after != 2 {
		t.Fatalf("post-append count = %d, want 2 (stale cache?)", after)
	}
	// Temporal pushdown over the delta.
	fi, err := search(ctx, e, "temporal", cinct.Query{Path: marker, Interval: &cinct.Interval{From: 100, To: 130}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fi) != 1 || fi[0].Trajectory != len(trajs)+1 || fi[0].EnteredAt != 100 {
		t.Fatalf("FindInInterval over delta = %+v", fi)
	}
	// Delta rows reconstruct through the engine.
	tr, err := e.Trajectory(ctx, "temporal", len(trajs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 4 || tr[1] != marker[0] {
		t.Fatalf("delta Trajectory = %v", tr)
	}

	hitsBefore, _ := drainEngine(t, e, "temporal", cinct.Query{Path: marker, Kind: cinct.Occurrences})
	sres, err := e.Seal(ctx, "temporal")
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sealed != 2 || sres.Delta != 0 {
		t.Fatalf("SealResult = %+v, want sealed 2 delta 0", sres)
	}
	hitsAfter, _ := drainEngine(t, e, "temporal", cinct.Query{Path: marker, Kind: cinct.Occurrences})
	if len(hitsBefore) != len(hitsAfter) {
		t.Fatalf("seal changed answers: %v vs %v", hitsBefore, hitsAfter)
	}
	for i := range hitsBefore {
		if hitsBefore[i] != hitsAfter[i] {
			t.Fatalf("seal changed answers: %v vs %v", hitsBefore, hitsAfter)
		}
	}

	// Persistence: the backing file now holds the sealed rows, so a
	// Reload (which discards the writer) still serves them.
	if _, err := e.Reload("temporal"); err != nil {
		t.Fatal(err)
	}
	n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("post-reload count = %d, want 2 (seal not persisted)", n)
	}

	info, err := e.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats.Trajectories != len(trajs)+2 || info.Delta != 0 {
		t.Fatalf("Info = %+v, want %d trajectories, 0 delta", info, len(trajs)+2)
	}
}

// TestEngineAppendValidation pins the engine-boundary typed errors of
// the write path.
func TestEngineAppendValidation(t *testing.T) {
	e := New(Options{SealThreshold: -1})
	defer e.CloseAll()
	trajs := testCorpus(1, 30)
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Register("mem", ix)
	ctx := context.Background()

	if _, err := e.Append(ctx, "nosuch", [][]uint32{{1}}, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown index: err = %v, want ErrNotFound", err)
	}
	if _, err := e.Append(ctx, "mem", [][]uint32{{}}, nil); !errors.Is(err, cinct.ErrBadAppend) {
		t.Fatalf("empty row: err = %v, want ErrBadAppend", err)
	}
	if _, err := e.Append(ctx, "mem", [][]uint32{{1}}, [][]int64{{5}}); !errors.Is(err, cinct.ErrBadAppend) {
		t.Fatalf("times on spatial: err = %v, want ErrBadAppend", err)
	}

	// A count-only base (no locate samples) cannot grow locate-capable
	// shards: the writer refuses rather than building a broken mix.
	countOnly, err := cinct.Build(trajs, &cinct.Options{Block: 63, SampleRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	e.Register("countonly", countOnly)
	if _, err := e.Append(ctx, "countonly", [][]uint32{{1}}, nil); !errors.Is(err, cinct.ErrNotAppendable) {
		t.Fatalf("count-only base: err = %v, want ErrNotAppendable", err)
	}
}

// TestEngineStaleCursor is the regression test for the
// generation-change audit: a cursor minted before a Reload fails with
// ErrStaleCursor instead of silently paging through renumbered data,
// while cursors survive Append and Seal (the ID space only extends).
func TestEngineStaleCursor(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(9, 80)
	writeIndexes(t, dir, trajs)
	e := New(Options{SealThreshold: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	path := trajs[0][:2]

	full, _ := drainEngine(t, e, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if len(full) < 3 {
		t.Skipf("corpus gave only %d hits; need >= 3", len(full))
	}

	page, cursor := drainEngine(t, e, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 2})
	if cursor == "" {
		t.Fatal("bounded page handed out no cursor")
	}

	// Append: the cursor must keep working (IDs only extend).
	if _, err := e.Append(ctx, "spatial", [][]uint32{{1, 2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainEngine(t, e, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences, Cursor: cursor})
	got := append(append([]cinct.Hit{}, page...), rest...)
	for i := range full {
		if got[i] != full[i] {
			t.Fatalf("resume after append diverged: %v vs %v", got, full)
		}
	}

	// Seal: still valid.
	if _, err := e.Seal(ctx, "spatial"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences, Cursor: cursor}); err != nil {
		t.Fatalf("cursor across seal: %v", err)
	}

	// Reload: the epoch advances and the cursor is dead.
	if _, err := e.Reload("spatial"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences, Cursor: cursor}); !errors.Is(err, ErrStaleCursor) {
		t.Fatalf("cursor across reload: err = %v, want ErrStaleCursor", err)
	}

	// Library tokens, garbage, and an envelope with no inner token
	// (which would silently restart from page one) never unwrap.
	lib := cinct.Query{Path: path, Kind: cinct.Occurrences}.CursorAfter(cinct.Hit{})
	empty := base64.RawURLEncoding.EncodeToString(binary.AppendUvarint([]byte{engineCursorVersion}, 2))
	for _, tok := range []string{lib, "garbage", "!!!", empty} {
		if _, err := e.Search(ctx, "spatial", cinct.Query{Path: path, Kind: cinct.Occurrences, Cursor: tok}); !errors.Is(err, cinct.ErrBadCursor) {
			t.Fatalf("cursor %q: err = %v, want ErrBadCursor", tok, err)
		}
	}
}

// TestEngineSealSurfacesPersistFailure pins that a compaction whose
// disk write failed is reported as an error, not a durable success.
func TestEngineSealSurfacesPersistFailure(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(2, 30)
	writeIndexes(t, dir, trajs)
	e := New(Options{SealThreshold: -1})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Append(ctx, "spatial", [][]uint32{{1, 2}}, nil); err != nil {
		t.Fatal(err)
	}
	// Make the backing path unwritable by removing its directory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Seal(ctx, "spatial"); err == nil {
		t.Fatal("Seal reported success although persistence failed")
	}
	// The rows are still queryable in memory — only durability failed.
	if n, err := searchCount(ctx, e, "spatial", cinct.Query{Path: []uint32{1, 2}, Kind: cinct.CountOnly}); err != nil || n == 0 {
		t.Fatalf("sealed rows lost in memory too: n=%d err=%v", n, err)
	}
}

// TestPersistWriterRenameFailureRemovesTemp pins persistWriter's
// cleanup when the final rename fails — here because the target is a
// non-empty directory: the error comes back and no path+".tmp" is left
// in the data dir.
func TestPersistWriterRenameFailureRemovesTemp(t *testing.T) {
	w, err := cinct.NewWriter(cinct.WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.AppendBatch(testCorpus(4, 10), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "blocked"+ExtSpatial)
	if err := os.MkdirAll(filepath.Join(path, "occupant"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := persistWriter(w, path); err == nil {
		t.Fatal("persistWriter reported success although the rename failed")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("%s.tmp left behind (stat err %v)", path, err)
	}
}

// TestEngineAutoSealPersists pins the background sealer: crossing the
// threshold compacts and persists without any explicit Seal call.
func TestEngineAutoSealPersists(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(3, 40)
	writeIndexes(t, dir, trajs)
	e := New(Options{SealThreshold: 4})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		if _, err := e.Append(ctx, "spatial", [][]uint32{{7, 7, 7}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The background seal races this check; poll the persisted file
	// until a wall-clock deadline, not for a number of reads: a read
	// costs less than a seal, so a read budget says nothing about time.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		f, err := os.Open(filepath.Join(dir, "spatial"+ExtSpatial))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cinct.Load(f)
		f.Close()
		if err == nil && ix.NumTrajectories() > len(trajs) {
			return // sealed rows reached disk
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-seal never persisted (file holds %v)", err)
		}
	}
}

// TestEngineIngestSoak extends the concurrency soak to the write
// path: concurrent Append + Seal + Search + reload churn (on a
// sibling index, so the shared cache and worker pool see mixed
// traffic) under -race, asserting no hit is lost or duplicated across
// seal boundaries and that a cursor taken pre-seal resumes correctly
// post-seal.
func TestEngineIngestSoak(t *testing.T) {
	dir := t.TempDir()
	trajs := testCorpus(5, 120)
	writeIndexes(t, dir, trajs)
	e := New(Options{Workers: 4, CacheEntries: 64, SealThreshold: 32})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	marker := []uint32{151, 152}

	const (
		appenders   = 3
		perAppender = 80
	)
	var appendWg, wg sync.WaitGroup
	errc := make(chan error, 16)
	stop := make(chan struct{})

	for g := 0; g < appenders; g++ {
		appendWg.Add(1)
		go func(g int) {
			defer appendWg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perAppender; i++ {
				tr := append([]uint32{uint32(rng.Intn(50))}, marker...)
				col := []int64{int64(i), int64(i + 1), int64(i + 2)}
				if _, err := e.Append(ctx, "temporal", [][]uint32{tr}, [][]int64{col}); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}

	wg.Add(1)
	go func() { // explicit sealer racing the auto-sealer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Seal(ctx, "temporal"); err != nil {
				errc <- err
				return
			}
		}
	}()

	wg.Add(1)
	go func() { // reload churn on the sibling index
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Reload("spatial"); err != nil {
				errc <- err
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
				if err != nil {
					errc <- err
					return
				}
				if n < prev {
					t.Errorf("marker count went backwards: %d after %d", n, prev)
					return
				}
				prev = n
				// Page with a cursor, then resume — possibly across a
				// seal that lands in between.
				q := cinct.Query{Path: marker, Kind: cinct.Occurrences, Limit: 5}
				r, err := e.Search(ctx, "temporal", q)
				if err != nil {
					errc <- err
					return
				}
				var page []cinct.Hit
				for h, herr := range r.All() {
					if herr != nil {
						errc <- herr
						return
					}
					page = append(page, h)
				}
				cur := r.Cursor()
				r.Close()
				if cur == "" {
					continue
				}
				q.Cursor = cur
				q.Limit = 5
				r2, err := e.Search(ctx, "temporal", q)
				if err != nil {
					errc <- err
					return
				}
				last := -1
				if len(page) > 0 {
					last = page[len(page)-1].Trajectory*1_000_000 + page[len(page)-1].Offset
				}
				for h, herr := range r2.All() {
					if herr != nil {
						errc <- herr
						return
					}
					if key := h.Trajectory*1_000_000 + h.Offset; key <= last {
						t.Errorf("resumed page duplicated or reordered hits across seal: %v then %v", page, h)
						r2.Close()
						return
					}
				}
				r2.Close()
			}
		}(g)
	}

	appendWg.Wait()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce and verify nothing was lost or duplicated.
	if _, err := e.Seal(ctx, "temporal"); err != nil {
		t.Fatal(err)
	}
	n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: marker, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if want := appenders * perAppender; n != want {
		t.Fatalf("marker count = %d, want %d (lost or duplicated across seals)", n, want)
	}
}

// TestAppendPublishesRowsWithGeneration is the deterministic form of
// the race TestEngineIngestSoak samples: a search whose snapshot
// predates an append, drained only after the append's rows became
// visible, must not leave its page under the generation later searches
// read. The writer's OnAppend hook parks the append just after its
// rows became visible to Search. A search issued there must either
// wait for the new generation or be unable to see its page replaced by
// the stale one; if neither holds, a repeated query sees the count go
// backwards.
func TestAppendPublishesRowsWithGeneration(t *testing.T) {
	ix, err := cinct.Build(testCorpus(5, 60), nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Workers: 4, SealThreshold: -1})
	defer e.CloseAll()
	e.Register("ix", ix)
	en, err := e.cat.get("ix")
	if err != nil {
		t.Fatal(err)
	}
	inWindow, release := make(chan struct{}), make(chan struct{})
	w, err := cinct.NewWriterAt(ix, cinct.WriterConfig{
		OnAppend: func(int, [][]uint32, [][]int64) {
			close(inWindow)
			<-release
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	en.mu.Lock()
	en.w = w
	en.mu.Unlock()

	ctx := context.Background()
	marker := []uint32{151, 152}
	q := cinct.Query{Path: marker, Kind: cinct.Occurrences}
	count := func() int {
		n, err := searchCount(ctx, e, "ix", q)
		if err != nil {
			t.Error(err)
		}
		return n
	}
	stale, err := e.Search(ctx, "ix", q) // snapshot before the append
	if err != nil {
		t.Fatal(err)
	}
	appended := make(chan error, 1)
	go func() {
		_, err := e.Append(ctx, "ix", [][]uint32{marker}, nil)
		appended <- err
	}()
	<-inWindow
	fresh := make(chan int, 1)
	go func() { fresh <- count() }()
	var seen []int
	// A search issued inside the window either completes there or waits
	// for the append to publish; the entry lock tells which, no timer.
	if en.mu.TryRLock() {
		en.mu.RUnlock()
		seen = append(seen, <-fresh)
	}
	before, err := stale.Count()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) > 0 {
		seen = append(seen, count())
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		seen = append(seen, <-fresh)
	}
	seen = append(seen, count())
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("count went backwards across one append: %v", seen)
		}
	}
	if got := seen[len(seen)-1]; got != before+1 {
		t.Fatalf("count after the acknowledged append = %d, want %d", got, before+1)
	}
}
