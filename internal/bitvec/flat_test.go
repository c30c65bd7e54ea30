package bitvec

import (
	"math/rand"
	"testing"

	"cinct/internal/flat"
)

func buildBits(n int, p float64, rng *rand.Rand) *Builder {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.PushBit(rng.Float64() < p)
	}
	return b
}

func checkVectorEqual(t *testing.T, want, got Vector) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Get(i) != want.Get(i) {
			t.Fatalf("Get(%d) = %v, want %v", i, got.Get(i), want.Get(i))
		}
		if got.Rank1(i) != want.Rank1(i) {
			t.Fatalf("Rank1(%d) = %d, want %d", i, got.Rank1(i), want.Rank1(i))
		}
		wb, wr := want.AccessRank1(i)
		gb, gr := got.AccessRank1(i)
		if wb != gb || wr != gr {
			t.Fatalf("AccessRank1(%d) = (%v,%d), want (%v,%d)", i, gb, gr, wb, wr)
		}
	}
	if got.Rank1(want.Len()) != want.Rank1(want.Len()) {
		t.Fatalf("full Rank1 mismatch")
	}
}

func TestFlatPlainRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 63, 64, 65, 512, 513, 4000} {
		orig := buildBits(n, 0.3, rng).Plain()
		w := flat.NewWriter()
		orig.AppendFlat(w)
		if orig.FlatWords() != w.Len() {
			t.Fatalf("n=%d: FlatWords %d, AppendFlat wrote %d", n, orig.FlatWords(), w.Len())
		}
		c := flat.NewCursor(w.Words())
		view, err := ViewPlain(c)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if c.Remaining() != 0 {
			t.Fatalf("n=%d: %d words left over", n, c.Remaining())
		}
		checkVectorEqual(t, orig, view)
		for k := 1; k <= orig.Ones(); k++ {
			if view.Select1(k) != orig.Select1(k) {
				t.Fatalf("n=%d: Select1(%d) mismatch", n, k)
			}
		}
	}
}

func TestFlatPackedIntsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []uint{1, 7, 33, 64} {
		vals := make([]uint64, 300)
		for i := range vals {
			vals[i] = rng.Uint64() & (^uint64(0) >> (64 - width))
		}
		orig := PackIntsWidth(vals, width)
		w := flat.NewWriter()
		orig.AppendFlat(w)
		if orig.FlatWords() != w.Len() {
			t.Fatalf("width=%d: FlatWords %d, AppendFlat wrote %d", width, orig.FlatWords(), w.Len())
		}
		view, err := ViewPackedInts(flat.NewCursor(w.Words()))
		if err != nil {
			t.Fatalf("width=%d: %v", width, err)
		}
		if view.Len() != orig.Len() {
			t.Fatalf("width=%d: Len mismatch", width)
		}
		for i := 0; i < orig.Len(); i++ {
			if view.Get(i) != orig.Get(i) {
				t.Fatalf("width=%d: Get(%d) = %d, want %d", width, i, view.Get(i), orig.Get(i))
			}
		}
	}
}

// An int32 section (flat.Writer.I32s) views in place as width-32 packed
// ints, odd lengths and negative values included.
func TestViewInt32s(t *testing.T) {
	for _, vals := range [][]int32{nil, {7}, {0, -1, 1 << 30, 5, -(1 << 31)}, {1, 2, 3, 4}} {
		w := flat.NewWriter()
		w.I32s(vals)
		c := flat.NewCursor(w.Words())
		view, err := ViewInt32s(c)
		if err != nil {
			t.Fatalf("%v: %v", vals, err)
		}
		if c.Remaining() != 0 || view.Len() != len(vals) || view.Width() != 32 {
			t.Fatalf("%v: len %d width %d, %d words left", vals, view.Len(), view.Width(), c.Remaining())
		}
		for i, v := range vals {
			if got := view.Get(i); got != uint64(uint32(v)) {
				t.Fatalf("%v: Get(%d) = %d, want %d", vals, i, got, uint32(v))
			}
		}
	}
	if _, err := ViewInt32s(flat.NewCursor([]uint64{5, 0})); err == nil {
		t.Fatal("overlong int32 section viewed")
	}
}

func TestFlatRRRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, bs := range []int{15, 31, 63} {
		for _, n := range []int{0, 1, bs, bs + 1, 10 * bs, 3000} {
			orig := buildBits(n, 0.15, rng).RRR(bs)
			w := flat.NewWriter()
			orig.AppendFlat(w)
			c := flat.NewCursor(w.Words())
			view, err := ViewRRR(c)
			if err != nil {
				t.Fatalf("bs=%d n=%d: %v", bs, n, err)
			}
			if c.Remaining() != 0 {
				t.Fatalf("bs=%d n=%d: %d words left over", bs, n, c.Remaining())
			}
			checkVectorEqual(t, orig, view)
		}
	}
}

func TestFlatVectorTagged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	b := buildBits(777, 0.4, rng)
	for _, orig := range []Vector{b.Plain(), b.RRR(63)} {
		w := flat.NewWriter()
		AppendVector(w, orig)
		view, err := ViewVector(flat.NewCursor(w.Words()))
		if err != nil {
			t.Fatal(err)
		}
		checkVectorEqual(t, orig, view)
	}
}

// FlatWords prices both forms without building RRR; the prices must be
// exactly what AppendVector writes, tiny and empty vectors included.
func TestFlatWordsMatchWrittenLength(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	written := func(v Vector) int {
		w := flat.NewWriter()
		AppendVector(w, v)
		return w.Len()
	}
	for _, bs := range []int{15, 31, 63} {
		for _, n := range []int{0, 1, 63, 64, 512, 513, 2015, 2016, 2017, 20_000} {
			for _, p := range []float64{0, 0.02, 0.35, 0.5, 1} {
				b := buildBits(n, p, rng)
				plain, rrr := b.FlatWords(bs)
				if got := written(b.Plain()); got != plain {
					t.Fatalf("bs=%d n=%d p=%v: plain writes %d words, priced %d", bs, n, p, got, plain)
				}
				if got := written(b.RRR(bs)); got != rrr {
					t.Fatalf("bs=%d n=%d p=%v: RRR writes %d words, priced %d", bs, n, p, got, rrr)
				}
			}
		}
	}
}

// Perturbing any single word of a flat vector must produce a typed
// error or a still-in-bounds (possibly wrong) structure — never an
// out-of-range access. This is the memory-safety contract mmap'd
// views rely on.
func TestFlatVectorCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	b := buildBits(900, 0.2, rng)
	for _, orig := range []Vector{b.Plain(), b.RRR(31)} {
		w := flat.NewWriter()
		AppendVector(w, orig)
		base := w.Words()
		for i := range base {
			for _, delta := range []uint64{1, ^uint64(0), 1 << 40} {
				mut := append([]uint64(nil), base...)
				mut[i] += delta
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("word %d +%#x: panic: %v", i, delta, r)
						}
					}()
					v, err := ViewVector(flat.NewCursor(mut))
					if err != nil {
						return
					}
					for j := 0; j < v.Len(); j += 37 {
						v.Get(j)
						v.Rank1(j)
					}
					v.Rank1(v.Len())
				}()
			}
		}
	}
}
