package tempo

import (
	"math/rand"
	"testing"
)

func randomColumns(rng *rand.Rand, n int) [][]int64 {
	return randomColumnsMaxLen(rng, n, 40)
}

// randomColumnsMaxLen draws columns whose lengths straddle several
// checkpoint blocks when maxLen >> BlockSize.
func randomColumnsMaxLen(rng *rand.Rand, n, maxLen int) [][]int64 {
	out := make([][]int64, n)
	for k := range out {
		l := 1 + rng.Intn(maxLen)
		col := make([]int64, l)
		t := int64(1600000000) + rng.Int63n(1e6)
		for i := range col {
			t += rng.Int63n(120) // seconds between edges
			col[i] = t
		}
		out[k] = col
	}
	return out
}

func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	times := randomColumns(rng, 50)
	s := New(times)
	if s.NumTrajectories() != 50 {
		t.Fatalf("NumTrajectories = %d", s.NumTrajectories())
	}
	for k, want := range times {
		if s.Len(k) != len(want) {
			t.Fatalf("Len(%d) = %d", k, s.Len(k))
		}
		got := s.Column(k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Column(%d)[%d] = %d, want %d", k, i, got[i], want[i])
			}
		}
		for i := range want {
			if at := s.At(k, i); at != want[i] {
				t.Fatalf("At(%d,%d) = %d, want %d", k, i, at, want[i])
			}
		}
	}
}

func TestNonMonotoneTimestamps(t *testing.T) {
	times := [][]int64{{100, 50, -3, 50, 100}}
	s := New(times)
	got := s.Column(0)
	for i, want := range times[0] {
		if got[i] != want {
			t.Fatalf("non-monotone column broken at %d", i)
		}
	}
}

func TestCompressionBeatsRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	times := randomColumns(rng, 500)
	s := New(times)
	var entries int
	for _, c := range times {
		entries += len(c)
	}
	raw := entries * 64
	if s.SizeBits() >= raw/2 {
		t.Fatalf("delta coding too weak: %d bits vs %d raw", s.SizeBits(), raw)
	}
}

// TestAtMatchesColumnProperty is the checkpoint correctness property:
// for random columns spanning many blocks (and non-monotone deltas),
// every At(k, i) must equal the full Column decode at i.
func TestAtMatchesColumnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		times := randomColumnsMaxLen(rng, 8, 6*BlockSize)
		// Mix in non-monotone columns: deltas may be negative.
		for _, col := range times {
			for i := range col {
				if rng.Intn(4) == 0 {
					col[i] -= rng.Int63n(500)
				}
			}
		}
		s := New(times)
		for k := range times {
			col := s.Column(k)
			for i := range col {
				if at := s.At(k, i); at != col[i] {
					t.Fatalf("trial %d: At(%d,%d) = %d, Column = %d", trial, k, i, at, col[i])
				}
			}
		}
	}
}

// TestAtDecodesAtMostOneBlock pins the whole point of the checkpoint
// rework: a probe at the end of a long column must decode O(BlockSize)
// varints, not the O(offset) prefix.
func TestAtDecodesAtMostOneBlock(t *testing.T) {
	col := make([]int64, 50*BlockSize)
	for i := range col {
		col[i] = int64(1000 * i)
	}
	s := New([][]int64{col})
	for _, i := range []int{0, BlockSize - 1, BlockSize, 7 * BlockSize, len(col) - 1} {
		s.ResetAtSteps()
		if at := s.At(0, i); at != col[i] {
			t.Fatalf("At(0,%d) = %d, want %d", i, at, col[i])
		}
		if steps := s.AtSteps(); steps > BlockSize {
			t.Fatalf("At(0,%d) decoded %d varints, want <= %d", i, steps, BlockSize)
		}
	}
}

func TestMinMax(t *testing.T) {
	s := New([][]int64{{100, 50, 300, 7}, {42}})
	if lo, hi := s.MinMax(0); lo != 7 || hi != 300 {
		t.Fatalf("MinMax(0) = (%d, %d), want (7, 300)", lo, hi)
	}
	if lo, hi := s.MinMax(1); lo != 42 || hi != 42 {
		t.Fatalf("MinMax(1) = (%d, %d), want (42, 42)", lo, hi)
	}
	// Empty columns must intersect no interval.
	if lo, hi := New([][]int64{{}}).MinMax(0); lo <= hi {
		t.Fatalf("empty column MinMax = (%d, %d), want min > max", lo, hi)
	}
}

func TestSizeBitsAccountsOffsets(t *testing.T) {
	s := New([][]int64{{1, 2, 3}, {4}})
	// At minimum: 64-bit starts, 32-bit lens, 64-bit min/max summaries.
	if s.SizeBits() < 2*64+2*32+4*64 {
		t.Fatalf("SizeBits = %d accounts less than the offset structures", s.SizeBits())
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	s := New([][]int64{{5}})
	defer func() {
		if recover() == nil {
			t.Fatal("At out of range should panic")
		}
	}()
	s.At(0, 1)
}
