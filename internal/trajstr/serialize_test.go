package trajstr

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// legacyMeta is the committed metadata stream of TestMetaRoundTrip's
// corpus, written by the SaveMeta this package had before v3 became
// the only format written.
func legacyMeta(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", "meta.v1"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMetaRoundTrip pins LoadMeta of the legacy stream: the fixture
// must describe exactly the corpus New builds from the same rows.
func TestMetaRoundTrip(t *testing.T) {
	trajs := [][]uint32{
		{100, 200, 300},
		{300, 100},
		{4000000000}, // near the uint32 ceiling
	}
	c, err := New(trajs)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadMeta(bytes.NewReader(legacyMeta(t)))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Sigma != c.Sigma || loaded.NumEdges() != c.NumEdges() ||
		loaded.NumTrajectories() != c.NumTrajectories() {
		t.Fatal("header mismatch after reload")
	}
	// Edge mapping survives.
	for _, e := range []uint32{100, 200, 300, 4000000000} {
		s1, ok1 := c.SymbolFor(e)
		s2, ok2 := loaded.SymbolFor(e)
		if ok1 != ok2 || s1 != s2 {
			t.Fatalf("edge %d maps differently after reload", e)
		}
		if loaded.EdgeFor(s2) != e {
			t.Fatalf("EdgeFor broken for %d", e)
		}
	}
	// Document tables survive (text-free DocAt).
	for pos := 0; pos < c.Len(); pos++ {
		d1, o1, ok1 := c.DocAtByTables(pos)
		d2, o2, ok2 := loaded.DocAtByTables(pos)
		if d1 != d2 || o1 != o2 || ok1 != ok2 {
			t.Fatalf("DocAtByTables(%d) differs after reload", pos)
		}
	}
	// The loaded corpus has no text.
	if loaded.Text != nil {
		t.Fatal("LoadMeta should not materialize text")
	}
}

func TestLoadMetaRejectsGarbage(t *testing.T) {
	if _, err := LoadMeta(bytes.NewReader([]byte("bogus"))); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("want ErrBadMeta, got %v", err)
	}
	full := legacyMeta(t)
	for _, cut := range []int{0, 3, len(full) - 1} {
		if _, err := LoadMeta(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestDocAtByTablesMatchesDocAt(t *testing.T) {
	trajs := [][]uint32{{5, 6, 7}, {8}, {9, 10}}
	c, err := New(trajs)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < c.Len(); pos++ {
		d1, o1, ok1 := c.DocAt(pos)
		d2, o2, ok2 := c.DocAtByTables(pos)
		if d1 != d2 || o1 != o2 || ok1 != ok2 {
			t.Fatalf("position %d: DocAt=(%d,%d,%v) tables=(%d,%d,%v)",
				pos, d1, o1, ok1, d2, o2, ok2)
		}
	}
}
