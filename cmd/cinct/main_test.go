package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cinct"
	"cinct/internal/trajio"
)

// TestSaveAtomicKeepsOldFileOnFailure pins the write discipline build,
// build-temporal and convert share: a save that fails midway leaves the
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

// TestBuildWritesV3 pins that cinct build and build-temporal write the
// v3 container cinctd -mmap serves.
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
	if err := cmdBuildTemporal([]string{"-in", corpus, "-times", times, "-index", temporal}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{spatial, temporal} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !cinct.IsV3Container(data) {
			t.Fatalf("%s starts with %q, want a v3 container", path, data[:min(8, len(data))])
		}
	}
}

// TestBuildSampleDefaultsToLibrary pins that build and build-temporal
// without -sample write exactly what the library's DefaultOptions
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
	if err := cmdBuildTemporal([]string{"-in", corpus, "-times", times, "-index", path, "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, wantTemporal.Bytes()) {
		t.Fatalf("cinct build-temporal without -sample differs from a DefaultOptions build (%v)", err)
	}
}
