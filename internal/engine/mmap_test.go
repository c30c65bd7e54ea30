package engine

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"cinct"
)

// TestEngineMmapServing pins the zero-copy serving path: an engine
// with Options.Mmap opens v3 containers mapped (reported via
// Info.Mapped), answers queries identically to a heap engine over the
// same files, heap-loads legacy v1/v2 files transparently, and — after
// an ingest + seal cycle — persists the sealed state back in v3 so a
// Reload maps it again.
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
	saveTo(t, filepath.Join(dir, "spatial"+ExtSpatial), ix.SaveV3)
	tix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	saveTo(t, filepath.Join(dir, "temporal"+ExtTemporal), tix.SaveV3)
	// A legacy v1 file in the same dir must still heap-load.
	saveTo(t, filepath.Join(dir, "legacy"+ExtSpatial), ix.Save)

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
	f, err := os.Open(filepath.Join(dir, "temporal"+ExtTemporal))
	if err != nil {
		t.Fatal(err)
	}
	magic := make([]byte, 8)
	if _, err := f.Read(magic); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if !cinct.IsV3Container(magic) {
		t.Fatalf("seal persisted magic %q, want a v3 container", magic)
	}
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
}
