package engine

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cinct"
)

// TestEngineMmapServing pins the zero-copy serving path: an engine
// with Options.Mmap opens v3 containers mapped (reported via
// Info.Mapped), answers queries identically to an engine that reads the
// same files into the heap, heap-loads a committed legacy file
// transparently, and — after an ingest + seal cycle — persists the
// sealed state back in v3 so a Reload maps it again. A seal under the
// heap engine writes v3 too: no engine writes a legacy format.
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
	// A legacy (pre-v3) file in the same dir must still heap-load.
	legacy, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", "spatial-4.cinct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy"+ExtSpatial), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	mapped := New(Options{Mmap: true})
	defer mapped.CloseAll()
	names, err := mapped.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("OpenDir loaded %v, want 3 names", names)
	}
	heap := New(Options{})
	defer heap.CloseAll()
	if _, err := heap.OpenDir(dir); err != nil {
		t.Fatal(err)
	}

	for name, wantMapped := range map[string]bool{
		"spatial": true, "temporal": true, "legacy": false,
	} {
		info, err := mapped.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mapped != wantMapped {
			t.Fatalf("Info(%q).Mapped = %v, want %v", name, info.Mapped, wantMapped)
		}
	}

	ctx := context.Background()
	pat := trajs[0][:2]
	for _, name := range []string{"spatial", "temporal", "legacy"} {
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

	// The heap engine seals the legacy index and persists it as v3.
	if _, err := heap.Append(ctx, "legacy", extra, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := heap.Seal(ctx, "legacy"); err != nil {
		t.Fatal(err)
	}
	assertV3File(t, filepath.Join(dir, "legacy"+ExtSpatial))
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
	if !cinct.IsV3Container(magic) {
		t.Fatalf("%s starts with %q, want a v3 container", path, magic)
	}
}
