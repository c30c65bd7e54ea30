package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/trajgen"
	"cinct/internal/trajio"
)

// TestSaveAtomicKeepsOldFileOnFailure pins the write discipline build
// and convert share: a save that fails midway leaves the
// previous index byte-identical and no temporary file behind.
func TestSaveAtomicKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.cinct")
	old := []byte("the previous index, intact")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	_, err := saveAtomic(path, func(w io.Writer) (int64, error) {
		n, _ := w.Write([]byte("half an ind"))
		return int64(n), boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("saveAtomic err = %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("previous file now %q (%v), want %q", got, err, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("data dir holds %d entries after a failed save, want only the old file", len(entries))
	}
}

// TestBuildWritesV3 pins that cinct build, with and without -times,
// writes the v3 container cinctd serves, of the flavor the corpus
// calls for.
func TestBuildWritesV3(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	times := filepath.Join(dir, "times.txt")
	if err := os.WriteFile(corpus, []byte("1 2 3\n2 3 4\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(times, []byte("10 20 30\n40 50 60\n70 80\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spatial := filepath.Join(dir, "ix.cinct")
	temporal := filepath.Join(dir, "ix.tcinct")
	if err := cmdBuild([]string{"-in", corpus, "-index", spatial, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-in", corpus, "-times", times, "-index", temporal}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]bool{spatial: false, temporal: true} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, []byte("CNCTidx3")) {
			t.Fatalf("%s starts with %q, want a v3 container", path, data[:min(8, len(data))])
		}
		ix, err := cinct.Load(bytes.NewReader(data))
		if err != nil || ix.Temporal() != want {
			t.Fatalf("%s: Load = %v; want Temporal() %v", path, err, want)
		}
	}
}

// TestBuildSampleDefaultsToLibrary pins that build, with and without
// -times, but without -sample, write exactly what the library's DefaultOptions
// build, so shards sealed or compacted onto a CLI-built file share its
// sample rate. A build with another -sample must differ, or the
// comparison would not see the rate at all.
func TestBuildSampleDefaultsToLibrary(t *testing.T) {
	dir := t.TempDir()
	corpus := filepath.Join(dir, "corpus.txt")
	times := filepath.Join(dir, "times.txt")
	var trajs, timeText bytes.Buffer
	for k := 0; k < 60; k++ {
		fmt.Fprintf(&trajs, "%d %d %d %d\n", k%7+1, k%5+10, k%3+20, k%11+30)
		fmt.Fprintf(&timeText, "%d %d %d %d\n", 10*k, 10*k+1, 10*k+2, 10*k+3)
	}
	if err := os.WriteFile(corpus, trajs.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(times, timeText.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	trs, err := readCorpus(corpus)
	if err != nil {
		t.Fatal(err)
	}
	opts := cinct.DefaultOptions()
	opts.Shards = 2
	ix, err := cinct.Build(trs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ix.Save(&want); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Open(times)
	if err != nil {
		t.Fatal(err)
	}
	tms, err := trajio.ReadTimes(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	tix, err := cinct.BuildTemporal(trs, tms, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wantTemporal bytes.Buffer
	if _, err := tix.Save(&wantTemporal); err != nil {
		t.Fatal(err)
	}

	build := func(extra ...string) []byte {
		t.Helper()
		path := filepath.Join(dir, "ix.cinct")
		if err := cmdBuild(append([]string{"-in", corpus, "-index", path, "-shards", "2"}, extra...)); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(build(), want.Bytes()) {
		t.Fatal("cinct build without -sample differs from a DefaultOptions build")
	}
	if bytes.Equal(build("-sample", "64"), want.Bytes()) {
		t.Fatal("cinct build -sample 64 equals the default build; the rate is not in the bytes")
	}
	path := filepath.Join(dir, "ix.tcinct")
	if err := cmdBuild([]string{"-in", corpus, "-times", times, "-index", path, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantTemporal.Bytes()) {
		t.Fatalf("cinct build -times without -sample differs from a DefaultOptions build (%v)", err)
	}
}

// legacyCorpus regenerates the corpus of the files under
// testdata/legacy (timedCorpus in the cinct package's tests).
func legacyCorpus(seed int64) ([][]uint32, [][]int64) {
	trajs := trajgen.MOGen(trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 120, MeanLen: 20, Seed: seed}).Trajs
	rng := rand.New(rand.NewSource(seed))
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		t := int64(1_700_000_000) + rng.Int63n(86400)
		for i := range col {
			col[i] = t
			t += 20 + rng.Int63n(60)
		}
		times[k] = col
	}
	return trajs, times
}

// TestConvertLegacyFixtures converts every pre-v3 fixture under a
// neutral file name, so nothing but the bytes can tell its flavor. The
// output must hold what the input held — temporal or not, every
// trajectory and every timestamp — and be byte-equal to Save of a fresh
// build of that corpus with the options the file recorded: the
// fixture's shard count at SampleRate 64, the default when they were
// written.
func TestConvertLegacyFixtures(t *testing.T) {
	for _, fx := range []struct {
		file     string
		seed     int64
		shards   int
		temporal bool
	}{
		{"spatial-1.cinct", 7, 1, false},
		{"spatial-4.cinct", 7, 4, false},
		{"temporal-1.tcinct", 7, 1, true},
		{"temporal-4.tcinct", 7, 4, true},
		{"temporal-1-unversioned.tcinct", 7, 1, true},
		{"global-store-unversioned.tcinct", 12, 3, true},
		{"global-store-cncttemp.tcinct", 12, 3, true},
	} {
		data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", fx.file))
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		in, out := filepath.Join(dir, "old.bin"), filepath.Join(dir, "out.bin")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdConvert([]string{"-in", in, "-out", out}); err != nil {
			t.Fatalf("%s: convert: %v", fx.file, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := cinct.Load(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("%s: Load(converted): %v", fx.file, err)
		}
		if ix.Temporal() != fx.temporal {
			t.Fatalf("%s: converted to temporal %v, want %v", fx.file, ix.Temporal(), fx.temporal)
		}
		trajs, times := legacyCorpus(fx.seed)
		for id := range trajs {
			if tr, err := ix.Trajectory(id); err != nil || !slices.Equal(tr, trajs[id]) {
				t.Fatalf("%s: Trajectory(%d) = %v, %v; want %v", fx.file, id, tr, err, trajs[id])
			}
			if fx.temporal {
				if ts := ix.Timestamps(id); !slices.Equal(ts, times[id]) {
					t.Fatalf("%s: Timestamps(%d) = %v, want %v", fx.file, id, ts, times[id])
				}
			}
		}
		opts := cinct.DefaultOptions()
		opts.Shards, opts.SampleRate = fx.shards, 64
		var want bytes.Buffer
		if fx.temporal {
			tix, err := cinct.BuildTemporal(trajs, times, opts)
			if err == nil {
				_, err = tix.Save(&want)
			}
			if err != nil {
				t.Fatal(err)
			}
		} else {
			ix, err := cinct.Build(trajs, opts)
			if err == nil {
				_, err = ix.Save(&want)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: converted bytes differ from Save of a fresh build at SampleRate 64", fx.file)
		}
	}
}

// TestLocalFlavorFromFile pins that a local -index loads as what its
// header says: a pre-v3 file is refused with the converter named, an
// interval query on a spatial index fails as not temporal rather than
// as corruption, and a spatial index named .tcinct simply serves as
// spatial.
func TestLocalFlavorFromFile(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.cinct")
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "legacy", "spatial-4.cinct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdCount([]string{"-index", old, "-path", "1 2"}); !errors.Is(err, cinct.ErrLegacyFormat) ||
		!bytes.Contains([]byte(err.Error()), []byte("cinct convert")) {
		t.Fatalf("count on a pre-v3 file: %v, want ErrLegacyFormat naming cinct convert", err)
	}

	corpus := filepath.Join(dir, "corpus.txt")
	if err := os.WriteFile(corpus, []byte("1 2 3\n2 3 4\n3 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spatial.cinct", "spatial.tcinct"} {
		path := filepath.Join(dir, name)
		if err := cmdBuild([]string{"-in", corpus, "-index", path, "-shards", "1"}); err != nil {
			t.Fatal(err)
		}
		if err := cmdCount([]string{"-index", path, "-path", "2 3"}); err != nil {
			t.Fatalf("%s: count: %v", name, err)
		}
		if err := cmdCount([]string{"-index", path, "-path", "2 3", "-from", "0"}); !errors.Is(err, engine.ErrNotTemporal) {
			t.Fatalf("%s: interval count: %v, want engine.ErrNotTemporal", name, err)
		}
	}
}
