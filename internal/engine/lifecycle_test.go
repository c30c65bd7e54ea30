package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cinct"
)

// TestCloseWaitsForPersist pins that closing an entry — Close, CloseAll,
// or a Load over its name — does not return while a persist of it is
// writing the file, and that a persist starting afterwards is refused,
// so the file does not change once the close returned. Holding the
// entry's persistMu stands in for a threshold seal mid-persist.
func TestCloseWaitsForPersist(t *testing.T) {
	for name, closeIt := range map[string]func(e *Engine, path string) error{
		"Close":    func(e *Engine, _ string) error { return e.Close("spatial") },
		"CloseAll": func(e *Engine, _ string) error { e.CloseAll(); return nil },
		"Load":     func(e *Engine, path string) error { return e.Load("spatial", path) },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeIndexes(t, dir, testCorpus(23, 40))
			e := New(Options{SealThreshold: -1})
			defer e.CloseAll()
			if _, err := e.OpenDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := e.Append(context.Background(), "spatial", [][]uint32{{1, 2, 3}}, nil); err != nil {
				t.Fatal(err)
			}
			en, err := e.cat.get("spatial")
			if err != nil {
				t.Fatal(err)
			}
			w, err := en.writer()
			if err != nil {
				t.Fatal(err)
			}
			if n, err := w.Seal(); err != nil || n != 1 {
				t.Fatalf("Seal = %d, %v; want 1", n, err)
			}
			before, err := os.ReadFile(en.path)
			if err != nil {
				t.Fatal(err)
			}

			en.persistMu.Lock() // a persist in flight
			done := make(chan error, 1)
			go func() { done <- closeIt(e, en.path) }()
			select {
			case err := <-done:
				en.persistMu.Unlock()
				t.Fatalf("%s returned (%v) while a persist held the file", name, err)
			case <-time.After(100 * time.Millisecond):
			}
			en.persistMu.Unlock()
			if err := <-done; err != nil {
				t.Fatal(err)
			}

			if err := e.persistEntry(en, w, "seal", true, 1); err == nil {
				t.Fatalf("a persist after %s was not refused", name)
			}
			after, err := os.ReadFile(en.path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatalf("the file changed after %s returned", name)
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
				t.Fatalf("temp files left after %s: %v", name, tmps)
			}
		})
	}
}

// TestReloadRacingSealsLosesNoRow appends under threshold seals while
// another goroutine reloads the same index, then restarts the engine
// over the same files and log: every acknowledged row must be served,
// before the restart and after it.
func TestReloadRacingSealsLosesNoRow(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	trajs := testCorpus(29, 40)
	writeIndexes(t, dir, trajs)
	ctx := context.Background()
	marker := []uint32{301, 302}
	e := New(Options{SealThreshold: 8, WAL: WALOptions{Dir: wal}})
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}

	const appenders, perAppender = 3, 200
	var appendWg, reloadWg sync.WaitGroup
	errc := make(chan error, appenders+1)
	for g := 0; g < appenders; g++ {
		appendWg.Add(1)
		go func(g int) {
			defer appendWg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perAppender; i++ {
				tr := append([]uint32{uint32(rng.Intn(50))}, marker...)
				if _, err := e.Append(ctx, "spatial", [][]uint32{tr}, nil); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	stop := make(chan struct{})
	reloadWg.Add(1)
	go func() {
		defer reloadWg.Done()
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
	appendWg.Wait()
	close(stop)
	reloadWg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := appenders * perAppender
	if n, err := searchCount(ctx, e, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly}); err != nil || n != want {
		t.Fatalf("before the restart: marker count = %d, %v; want %d", n, err, want)
	}
	e.CloseAll()
	e.Shutdown()

	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	defer e2.CloseAll()
	if n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly}); err != nil || n != want {
		t.Fatalf("after the restart: marker count = %d, %v; want %d", n, err, want)
	}
}

// TestShutdownEndsEntries pins that Shutdown ends every entry the way
// CloseAll does: an Append after it fails with ErrNotFound instead of
// being acknowledged without a log record, and an engine reopened on
// the same files and log serves every row that was acknowledged.
func TestShutdownEndsEntries(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	writeIndexes(t, dir, testCorpus(37, 40))
	ctx := context.Background()
	marker := []uint32{301, 302}
	e := walEngine(t, dir, wal)
	acked := 0
	if _, err := e.Append(ctx, "spatial", [][]uint32{marker}, nil); err != nil {
		t.Fatal(err)
	}
	acked++
	e.Shutdown()
	if _, err := e.Append(ctx, "spatial", [][]uint32{marker}, nil); err == nil {
		acked++
		t.Error("Append after Shutdown was acknowledged")
	} else if !errors.Is(err, ErrNotFound) {
		t.Errorf("Append after Shutdown: err = %v, want ErrNotFound", err)
	}
	if _, err := searchCount(ctx, e, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly}); !errors.Is(err, ErrNotFound) {
		t.Errorf("Search after Shutdown: err = %v, want ErrNotFound", err)
	}

	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	if n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: marker, Kind: cinct.CountOnly}); err != nil || n != acked {
		t.Fatalf("after the restart: marker count = %d, %v; want the %d acknowledged", n, err, acked)
	}
}

// TestLoadOverWALEntryLosesNoRow appends one-row batches while two
// other goroutines Load the same name from the same file over and
// over, then restarts the engine over the same files and log. Each row
// carries an edge ID no other row uses, so after the restart every
// acknowledged row must be counted exactly once: a replacing Load must
// end the entry it replaces before it opens the log, and two Loads must
// not hold the log at once, or two handles write one segment under the
// same IDs.
func TestLoadOverWALEntryLosesNoRow(t *testing.T) {
	dir, wal := t.TempDir(), t.TempDir()
	writeIndexes(t, dir, testCorpus(43, 40))
	path := filepath.Join(dir, "spatial"+ExtSpatial)
	ctx := context.Background()
	e := walEngine(t, dir, wal)

	const appenders, perAppender, loaders, loads = 4, 150, 2, 10
	var wg sync.WaitGroup
	acked := make([][]uint32, appenders)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each appender owns edge IDs [base, base+stride): a bounded
			// spin, should the name never be served again.
			const stride = 100_000
			base := uint32(1000 + g*stride)
			for edge := base; len(acked[g]) < perAppender && edge < base+stride; edge++ {
				// Appends between a Load's end of the old entry and its
				// install fail with ErrNotFound: not acknowledged.
				if _, err := e.Append(ctx, "spatial", [][]uint32{{edge}}, nil); err == nil {
					acked[g] = append(acked[g], edge)
				} else if !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for l := 0; l < loaders; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				if err := e.Load("spatial", path); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	e.Shutdown()

	e2 := walEngine(t, dir, wal)
	defer e2.Shutdown()
	for _, edges := range acked {
		for _, edge := range edges {
			if n, err := searchCount(ctx, e2, "spatial", cinct.Query{Path: []uint32{edge}, Kind: cinct.CountOnly}); err != nil || n != 1 {
				t.Errorf("after the restart: acknowledged row %d counted %d times (%v), want once", edge, n, err)
			}
		}
	}
}

// TestCloseThenLoadServesNoStaleCache pins that a name closed and then
// loaded again answers from the new file: its generations restart, so
// a cache keyed by name and generation would hand the closed index's
// count to the new one.
func TestCloseThenLoadServesNoStaleCache(t *testing.T) {
	ctx := context.Background()
	e := New(Options{})
	defer e.Shutdown()
	build := func(rows int) *cinct.Index {
		trajs := [][]uint32{{1, 3}}
		for range rows {
			trajs = append(trajs, []uint32{2, 4})
		}
		ix, err := cinct.Build(trajs, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	q := cinct.Query{Path: []uint32{2}, Kind: cinct.CountOnly}
	for _, rows := range []int{2, 7} {
		serveIndex(t, e, "ix", build(rows))
		if n, err := searchCount(ctx, e, "ix", q); err != nil || n != rows {
			t.Fatalf("count = %d, %v; want %d", n, err, rows)
		}
		if err := e.Close("ix"); err != nil {
			t.Fatal(err)
		}
	}
}
