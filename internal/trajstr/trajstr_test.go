package trajstr

import (
	"errors"
	"testing"
)

func paperCorpus(t *testing.T) *Corpus {
	t.Helper()
	// The paper's four example NCTs (Fig. 1a) with edge IDs
	// A..F -> 10..15 (arbitrary external IDs).
	trajs := [][]uint32{
		{10, 11, 14, 15}, // T1 = A B E F
		{10, 11, 12},     // T2 = A B C
		{11, 12},         // T3 = B C
		{10, 13},         // T4 = A D
	}
	c, err := New(trajs)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPaperTrajectoryString(t *testing.T) {
	c := paperCorpus(t)
	// Expected: T = FEBA $ CBA $ CB $ DA $ #  (Eq. 1) with
	// A..F -> symbols 2..7.
	want := []uint32{7, 6, 3, 2, 1, 4, 3, 2, 1, 4, 3, 1, 5, 2, 1, 0}
	if len(c.Text) != len(want) {
		t.Fatalf("|T| = %d, want %d", len(c.Text), len(want))
	}
	for i := range want {
		if c.Text[i] != want[i] {
			t.Fatalf("T[%d] = %d, want %d", i, c.Text[i], want[i])
		}
	}
	if c.Sigma != 8 {
		t.Fatalf("Sigma = %d, want 8", c.Sigma)
	}
	if c.NumEdges() != 6 || c.NumTrajectories() != 4 {
		t.Fatalf("NumEdges=%d NumTrajectories=%d", c.NumEdges(), c.NumTrajectories())
	}
}

func TestTrajectoryRoundTrip(t *testing.T) {
	trajs := [][]uint32{
		{100, 200, 300},
		{300, 100},
		{42},
	}
	c, err := New(trajs)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range trajs {
		got := c.Trajectory(k)
		if len(got) != len(want) {
			t.Fatalf("trajectory %d: length %d, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trajectory %d: edge %d = %d, want %d", k, i, got[i], want[i])
			}
		}
		if c.TrajectoryLen(k) != len(want) {
			t.Fatalf("TrajectoryLen(%d) = %d", k, c.TrajectoryLen(k))
		}
	}
}

func TestEncodeAndReversedPattern(t *testing.T) {
	c := paperCorpus(t)
	enc, ok := c.EncodePath([]uint32{10, 11}) // A B
	if !ok || enc[0] != 2 || enc[1] != 3 {
		t.Fatalf("EncodePath = %v, %v", enc, ok)
	}
	rev, ok := c.ReversedPattern([]uint32{10, 11}) // -> B A
	if !ok || rev[0] != 3 || rev[1] != 2 {
		t.Fatalf("ReversedPattern = %v, %v", rev, ok)
	}
	if _, ok := c.EncodePath([]uint32{10, 999}); ok {
		t.Fatal("unknown edge should fail to encode")
	}
}

func TestDocAt(t *testing.T) {
	c := paperCorpus(t)
	// Position 0 is 'F', the last edge of trajectory 0 (offset 3).
	if doc, off, ok := c.DocAt(0); !ok || doc != 0 || off != 3 {
		t.Fatalf("DocAt(0) = %d,%d,%v", doc, off, ok)
	}
	// Position 3 is 'A', the first edge of trajectory 0.
	if doc, off, ok := c.DocAt(3); !ok || doc != 0 || off != 0 {
		t.Fatalf("DocAt(3) = %d,%d,%v", doc, off, ok)
	}
	// Position 4 is '$'.
	if _, _, ok := c.DocAt(4); ok {
		t.Fatal("DocAt on separator should report !ok")
	}
	// Position 13 is 'A' of trajectory 3 (D A reversed = A? no: T4 = AD,
	// reversed DA, so position 12 is D (offset 1), 13 is A (offset 0)).
	if doc, off, ok := c.DocAt(12); !ok || doc != 3 || off != 1 {
		t.Fatalf("DocAt(12) = %d,%d,%v", doc, off, ok)
	}
	if doc, off, ok := c.DocAt(13); !ok || doc != 3 || off != 0 {
		t.Fatalf("DocAt(13) = %d,%d,%v", doc, off, ok)
	}
	// Final '#'.
	if _, _, ok := c.DocAt(len(c.Text) - 1); ok {
		t.Fatal("DocAt on terminator should report !ok")
	}
}

func TestErrors(t *testing.T) {
	if _, err := New(nil); !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("want ErrEmptyCorpus, got %v", err)
	}
	if _, err := New([][]uint32{{1}, {}}); !errors.Is(err, ErrEmptyTrajectory) {
		t.Fatalf("want ErrEmptyTrajectory, got %v", err)
	}
}

func TestEdgeSymbolMapping(t *testing.T) {
	c := paperCorpus(t)
	for _, e := range []uint32{10, 11, 12, 13, 14, 15} {
		s, ok := c.SymbolFor(e)
		if !ok {
			t.Fatalf("edge %d not mapped", e)
		}
		if c.EdgeFor(s) != e {
			t.Fatalf("EdgeFor(SymbolFor(%d)) = %d", e, c.EdgeFor(s))
		}
	}
	if _, ok := c.SymbolFor(9999); ok {
		t.Fatal("unknown edge should not map")
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

func TestEdgeForPanicsOnSentinel(t *testing.T) {
	c := paperCorpus(t)
	defer func() {
		if recover() == nil {
			t.Fatal("EdgeFor(SymSep) should panic")
		}
	}()
	c.EdgeFor(SymSep)
}
