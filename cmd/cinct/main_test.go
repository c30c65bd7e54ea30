package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cinct"
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
