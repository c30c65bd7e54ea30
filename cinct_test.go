package cinct

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cinct/internal/trajgen"
)

// testCorpus returns a small deterministic corpus with known structure.
func testCorpus() [][]uint32 {
	return [][]uint32{
		{10, 11, 14, 15}, // A B E F (paper's T1, arbitrary IDs)
		{10, 11, 12},     // A B C
		{11, 12},         // B C
		{10, 13},         // A D
	}
}

func TestCountPaperExample(t *testing.T) {
	ix, err := Build(testCorpus(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Path A→B occurs in T1 and T2.
	if got := ix.Count([]uint32{10, 11}); got != 2 {
		t.Fatalf("Count(A,B) = %d, want 2", got)
	}
	// Path B→C occurs in T2 and T3.
	if got := ix.Count([]uint32{11, 12}); got != 2 {
		t.Fatalf("Count(B,C) = %d, want 2", got)
	}
	// Path A→B→C only in T2.
	if got := ix.Count([]uint32{10, 11, 12}); got != 1 {
		t.Fatalf("Count(A,B,C) = %d, want 1", got)
	}
	// Path B→A never occurs (direction matters).
	if got := ix.Count([]uint32{11, 10}); got != 0 {
		t.Fatalf("Count(B,A) = %d, want 0", got)
	}
	// Unknown edge.
	if got := ix.Count([]uint32{999}); got != 0 {
		t.Fatalf("Count(unknown) = %d, want 0", got)
	}
	// Empty path.
	if got := ix.Count(nil); got != 0 {
		t.Fatalf("Count(empty) = %d, want 0", got)
	}
}

func TestFindReportsTrajectoryAndOffset(t *testing.T) {
	ix, err := Build(testCorpus(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := search(ix, Query{Path: []uint32{11, 12}}) // B→C
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("Find(B,C) returned %d hits, want 2", len(hits))
	}
	want := map[int]int{1: 1, 2: 0} // traj 1 offset 1, traj 2 offset 0
	for _, h := range hits {
		off, ok := want[h.Trajectory]
		if !ok {
			t.Fatalf("unexpected trajectory %d", h.Trajectory)
		}
		if h.Offset != off {
			t.Fatalf("trajectory %d: offset %d, want %d", h.Trajectory, h.Offset, off)
		}
		delete(want, h.Trajectory)
	}
	// Limit.
	hits, err = search(ix, Query{Path: []uint32{11, 12}, Limit: 1})
	if err != nil || len(hits) != 1 {
		t.Fatalf("limited Find returned %d hits (%v)", len(hits), err)
	}
	// Miss.
	hits, err = search(ix, Query{Path: []uint32{15, 10}})
	if err != nil || hits != nil {
		t.Fatalf("miss should return nil hits, got %v (%v)", hits, err)
	}
}

func TestTrajectoryReconstruction(t *testing.T) {
	trajs := testCorpus()
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range trajs {
		got, err := ix.Trajectory(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trajectory %d: %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trajectory %d differs at %d: %v vs %v", id, i, got, want)
			}
		}
	}
}

func TestSubPath(t *testing.T) {
	trajs := testCorpus()
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.SubPath(0, 1, 3) // edges 1..2 of T1 = B E
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 11 || got[1] != 14 {
		t.Fatalf("SubPath(0,1,3) = %v, want [11 14]", got)
	}
	if _, err := ix.SubPath(0, 2, 1); err == nil {
		t.Fatal("inverted range should error")
	}
	if _, err := ix.SubPath(0, 0, 99); err == nil {
		t.Fatal("overlong range should error")
	}
	empty, err := ix.SubPath(0, 2, 2)
	if err != nil || len(empty) != 0 {
		t.Fatal("empty range should return no edges")
	}
}

// TestOutOfRangeTrajectoryID pins one contract for a bad trajectory ID
// on every index shape: Trajectory and SubPath return an error,
// TrajectoryLen returns -1, Timestamps returns nil — never a panic, and
// the same on an Index as on a Writer (sealed and delta ranges alike).
func TestOutOfRangeTrajectoryID(t *testing.T) {
	trajs, times := fuzzCorpus()
	type lookup interface {
		NumTrajectories() int
		Trajectory(id int) ([]uint32, error)
		SubPath(id, from, to int) ([]uint32, error)
		TrajectoryLen(id int) int
	}
	shapes := map[string]lookup{}
	for _, k := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Shards = k
		ix, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("Index/%d", k)] = ix
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("Index/%d/temporal", k)] = tix.Index
		// A writer whose ID space ends in the sealed range, and one
		// whose last IDs live in the delta.
		sealed, err := NewWriterAt(ix, WriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("Writer/%d/sealed", k)] = sealed
		delta, err := NewWriterAt(ix, WriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := delta.Append([]uint32{1, 2}, nil); err != nil {
			t.Fatal(err)
		}
		shapes[fmt.Sprintf("Writer/%d/delta", k)] = delta
	}
	empty, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shapes["Writer/empty"] = empty
	for name, ix := range shapes {
		n := ix.NumTrajectories()
		for _, id := range []int{-1, n, math.MaxInt} {
			if tr, err := ix.Trajectory(id); err == nil {
				t.Errorf("%s: Trajectory(%d) = %v, want an error", name, id, tr)
			}
			if sub, err := ix.SubPath(id, 0, 1); err == nil {
				t.Errorf("%s: SubPath(%d,0,1) = %v, want an error", name, id, sub)
			}
			if got := ix.TrajectoryLen(id); got != -1 {
				t.Errorf("%s: TrajectoryLen(%d) = %d, want -1", name, id, got)
			}
			if ix, ok := ix.(*Index); ok {
				if col := ix.Timestamps(id); col != nil {
					t.Errorf("%s: Timestamps(%d) = %v, want nil", name, id, col)
				}
			}
		}
		if n > 0 {
			if _, err := ix.Trajectory(n - 1); err != nil {
				t.Errorf("%s: Trajectory(%d): %v", name, n-1, err)
			}
		}
	}
}

func TestCountOnlyIndex(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleRate = 0
	ix, err := Build(testCorpus(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Count([]uint32{10, 11}); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if _, err := search(ix, Query{Path: []uint32{10, 11}}); !errors.Is(err, ErrNoLocate) {
		t.Fatalf("Find should return ErrNoLocate, got %v", err)
	}
	if _, err := ix.Trajectory(0); !errors.Is(err, ErrNoLocate) {
		t.Fatalf("Trajectory should return ErrNoLocate, got %v", err)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(nil, nil); err == nil {
		t.Fatal("empty corpus should error")
	}
	if _, err := Build([][]uint32{{1}, {}}, nil); err == nil {
		t.Fatal("empty trajectory should error")
	}
	if _, err := Build([][]uint32{{1}}, &Options{Block: 17}); err == nil {
		t.Fatal("invalid block size should error")
	}
	if _, err := Build([][]uint32{{1}}, &Options{Block: 63, SampleRate: -1}); err == nil {
		t.Fatal("negative sample rate should error")
	}
	// Block 0 means default and must work.
	if _, err := Build([][]uint32{{1, 2}}, &Options{SampleRate: 4}); err != nil {
		t.Fatalf("Block=0 should default: %v", err)
	}
}

func TestStats(t *testing.T) {
	ix, err := Build(testCorpus(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	if s.Trajectories != 4 || s.Edges != 6 {
		t.Fatalf("stats header: %+v", s)
	}
	if s.TextLen != 16 { // the paper's |T| for this corpus
		t.Fatalf("TextLen = %d, want 16", s.TextLen)
	}
	if s.BitsPerSymbol <= 0 {
		t.Fatal("BitsPerSymbol must be positive")
	}
	if s.MaxLabel < 2 {
		t.Fatalf("MaxLabel = %d", s.MaxLabel)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 80, MeanLen: 20, Seed: 9}
	d := trajgen.Singapore2(cfg)
	ix, err := Build(d.Trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Counts agree on sampled paths.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		k := rng.Intn(len(d.Trajs))
		tr := d.Trajs[k]
		if len(tr) < 3 {
			continue
		}
		start := rng.Intn(len(tr) - 2)
		path := tr[start : start+2+rng.Intn(min(3, len(tr)-start-1))]
		if got, want := loaded.Count(path), ix.Count(path); got != want {
			t.Fatalf("Count differs after reload: %d vs %d", got, want)
		}
	}
	// Trajectory reconstruction from the loaded index.
	for _, id := range []int{0, len(d.Trajs) / 2, len(d.Trajs) - 1} {
		got, err := loaded.Trajectory(id)
		if err != nil {
			t.Fatal(err)
		}
		want := d.Trajs[id]
		if len(got) != len(want) {
			t.Fatalf("trajectory %d: length %d vs %d", id, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trajectory %d differs at %d", id, i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage stream"))); err == nil {
		t.Fatal("garbage should not load")
	}
}

// End-to-end on a realistic corpus: every sampled sub-path must be
// findable, and every hit must actually contain the path.
func TestIntegrationFindIsCorrect(t *testing.T) {
	cfg := trajgen.Config{GridW: 10, GridH: 10, NumTrajs: 150, MeanLen: 30, Seed: 11}
	d := trajgen.Roma(cfg)
	ix, err := Build(d.Trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(len(d.Trajs))
		tr := d.Trajs[k]
		if len(tr) < 5 {
			continue
		}
		start := rng.Intn(len(tr) - 4)
		m := 2 + rng.Intn(3)
		path := tr[start : start+m]
		hits, err := search(ix, Query{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Count(path) != len(hits) {
			t.Fatalf("Count=%d but %d hits", ix.Count(path), len(hits))
		}
		found := false
		for _, h := range hits {
			sub, err := ix.SubPath(h.Trajectory, h.Offset, h.Offset+m)
			if err != nil {
				t.Fatal(err)
			}
			for i := range path {
				if sub[i] != path[i] {
					t.Fatalf("hit at traj %d off %d does not contain the path",
						h.Trajectory, h.Offset)
				}
			}
			if h.Trajectory == k && h.Offset == start {
				found = true
			}
		}
		if !found {
			t.Fatalf("planted occurrence (traj %d, off %d) not reported", k, start)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
