package engine

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cinct"
)

// TestEngineMmapServing pins the one open path: an engine opens v3
// containers mapped (reported via Info.Mapped), answers queries
// identically to an engine serving the same indexes from the heap, and
// — after an ingest + seal cycle — persists the sealed state back in v3
// so a Reload maps it again.
func TestEngineMmapServing(t *testing.T) {
	trajs := testCorpus(41, 60)
	times := testTimes(trajs)
	dir := t.TempDir()

	opts := cinct.DefaultOptions()
	opts.Shards = 3
	ix, err := cinct.Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "spatial"+ExtSpatial), ix.Save)
	tix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "temporal"+ExtTemporal), tix.Save)

	mapped := New(Options{})
	defer mapped.CloseAll()
	names, err := mapped.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("OpenDir loaded %v, want 2 names", names)
	}
	heap := New(Options{})
	defer heap.CloseAll()
	heap.Register("spatial", ix)
	heap.Register("temporal", tix.Index)

	for _, name := range []string{"spatial", "temporal"} {
		info, err := mapped.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if !info.Mapped {
			t.Fatalf("Info(%q).Mapped = false, want true", name)
		}
		if info, err := heap.Info(name); err != nil || info.Mapped {
			t.Fatalf("heap Info(%q).Mapped = %v (%v), want false", name, info.Mapped, err)
		}
	}

	ctx := context.Background()
	pat := trajs[0][:2]
	for _, name := range []string{"spatial", "temporal"} {
		wc, err := searchCount(ctx, heap, name, cinct.Query{Path: pat, Kind: cinct.CountOnly})
		if err != nil {
			t.Fatal(err)
		}
		gc, err := searchCount(ctx, mapped, name, cinct.Query{Path: pat, Kind: cinct.CountOnly})
		if err != nil {
			t.Fatal(err)
		}
		if wc != gc {
			t.Fatalf("%s: mapped Count = %d, heap %d", name, gc, wc)
		}
		wm, err := search(ctx, heap, name, cinct.Query{Path: pat})
		if err != nil {
			t.Fatal(err)
		}
		gm, err := search(ctx, mapped, name, cinct.Query{Path: pat})
		if err != nil {
			t.Fatal(err)
		}
		if len(wm) != len(gm) {
			t.Fatalf("%s: mapped Find %d matches, heap %d", name, len(gm), len(wm))
		}
		for i := range wm {
			if wm[i] != gm[i] {
				t.Fatalf("%s: match %d = %+v, want %+v", name, i, gm[i], wm[i])
			}
		}
	}

	// Ingest into the mapped temporal index, seal, and confirm the
	// persisted file is a v3 container that reloads mapped.
	extra := testCorpus(43, 8)
	if _, err := mapped.Append(ctx, "temporal", extra, testTimes(extra)); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.Seal(ctx, "temporal"); err != nil {
		t.Fatal(err)
	}
	assertV3File(t, filepath.Join(dir, "temporal"+ExtTemporal))
	if _, err := mapped.Reload("temporal"); err != nil {
		t.Fatal(err)
	}
	info, err := mapped.Info("temporal")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Mapped {
		t.Fatal("reloaded sealed index is not mapped")
	}
	n, err := searchCount(ctx, mapped, "temporal", cinct.Query{Path: extra[0][:2], Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("sealed trajectories not queryable after mapped reload")
	}

	// A spatial seal persists v3 the same way.
	if _, err := mapped.Append(ctx, "spatial", extra, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := mapped.Seal(ctx, "spatial"); err != nil {
		t.Fatal(err)
	}
	assertV3File(t, filepath.Join(dir, "spatial"+ExtSpatial))
}

// assertV3File fails unless path starts with the v3 container magic.
func assertV3File(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	magic := make([]byte, 8)
	if _, err := io.ReadFull(f, magic); err != nil {
		t.Fatal(err)
	}
	if string(magic) != "CNCTidx3" {
		t.Fatalf("%s starts with %q, want a v3 container", path, magic)
	}
}

// TestEngineFlavorFromFile pins that the engine serves what a file
// holds, whatever its name: a spatial index saved as .tcinct loads
// spatial, so an interval query on it is ErrNotTemporal, and a temporal
// one saved as .cinct loads temporal.
func TestEngineFlavorFromFile(t *testing.T) {
	trajs := testCorpus(41, 30)
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	tix, err := cinct.BuildTemporal(trajs, testTimes(trajs), nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saveTo(t, filepath.Join(dir, "spatial"+ExtTemporal), ix.Save)
	saveTo(t, filepath.Join(dir, "temporal"+ExtSpatial), tix.Save)
	ctx := context.Background()
	path := trajs[0][:2]
	all := &cinct.Interval{From: math.MinInt64, To: math.MaxInt64}
	e := New(Options{})
	defer e.CloseAll()
	if _, err := e.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"spatial": false, "temporal": true} {
		if info, err := e.Info(name); err != nil || info.Temporal != want {
			t.Fatalf("Info(%q).Temporal = %v (%v), want %v", name, info.Temporal, err, want)
		}
	}
	if _, err := searchCount(ctx, e, "spatial", cinct.Query{Path: path, Interval: all, Kind: cinct.CountOnly}); !errors.Is(err, ErrNotTemporal) {
		t.Fatalf("interval count on the spatial .tcinct: %v, want ErrNotTemporal", err)
	}
	n, err := searchCount(ctx, e, "temporal", cinct.Query{Path: path, Interval: all, Kind: cinct.CountOnly})
	if err != nil || n != ix.Count(path) {
		t.Fatalf("interval count on the temporal .cinct = %d, %v; want %d", n, err, ix.Count(path))
	}
}

// TestEngineRefusesLegacyFiles pins the typed refusal of every pre-v3
// fixture at each engine entry point — Load, and Reload of a file
// replaced by one, which keeps serving the index it had — and that
// OpenDir's error names the file.
func TestEngineRefusesLegacyFiles(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("..", "..", "testdata", "legacy", "*cinct"))
	if err != nil {
		t.Fatal(err)
	}
	trajs := testCorpus(41, 30)
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	refused := 0
	for _, fixture := range fixtures {
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[:8]) == "CNCTidx3" {
			continue
		}
		refused++
		name := filepath.Base(fixture)
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Options{})
		if err := e.Load("old", path); !errors.Is(err, cinct.ErrLegacyFormat) {
			t.Fatalf("%s: Load err = %v, want ErrLegacyFormat", name, err)
		}
		if _, err := e.OpenDir(dir); !errors.Is(err, cinct.ErrLegacyFormat) || !strings.Contains(err.Error(), name) {
			t.Fatalf("%s: OpenDir err = %v, want ErrLegacyFormat naming the file", name, err)
		}

		live := filepath.Join(t.TempDir(), "live"+ExtSpatial)
		saveTo(t, live, ix.Save)
		if err := e.Load("live", live); err != nil {
			t.Fatal(err)
		}
		// Replaced the way files are, by rename: a mapped index keeps
		// reading the file it opened.
		if err := os.WriteFile(live+".tmp", data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(live+".tmp", live); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Reload("live"); !errors.Is(err, cinct.ErrLegacyFormat) {
			t.Fatalf("%s: Reload err = %v, want ErrLegacyFormat", name, err)
		}
		if n, err := searchCount(ctx, e, "live", cinct.Query{Path: trajs[0][:2], Kind: cinct.CountOnly}); err != nil || n != ix.Count(trajs[0][:2]) {
			t.Fatalf("%s: after the refused Reload count = %d, %v; want the old index's %d", name, n, err, ix.Count(trajs[0][:2]))
		}
		e.CloseAll()
	}
	if refused != 7 {
		t.Fatalf("%d pre-v3 fixtures refused, want 7", refused)
	}
}
