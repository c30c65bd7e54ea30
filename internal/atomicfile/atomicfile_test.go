package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteKeepsOldFileOnFailure pins the discipline every index
// writer shares: a save that fails midway leaves the previous file
// byte-identical and no temporary file behind.
func TestWriteKeepsOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.cinct")
	old := []byte("the previous index, intact")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	_, err := Write(path, func(w io.Writer) (int64, error) {
		n, _ := w.Write([]byte("half an ind"))
		return int64(n), boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write err = %v, want %v", err, boom)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("previous file now %q (%v), want %q", got, err, old)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after a failed save, want only the old file", len(entries))
	}
}
