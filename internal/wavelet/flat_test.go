package wavelet

import (
	"math/rand"
	"testing"

	"cinct/internal/flat"
)

func randSeq(n, sigma int, rng *rand.Rand) []uint32 {
	seq := make([]uint32, n)
	for i := range seq {
		// Skewed draw so the Huffman shape is non-trivial.
		s := rng.Intn(sigma)
		if rng.Float64() < 0.5 {
			s = s * s / sigma
		}
		seq[i] = uint32(s)
	}
	return seq
}

func checkHWTEqual(t *testing.T, seq []uint32, sigma int, got *HWT) {
	t.Helper()
	if got.Len() != len(seq) || got.Sigma() != sigma {
		t.Fatalf("shape: (%d,%d), want (%d,%d)", got.Len(), got.Sigma(), len(seq), sigma)
	}
	counts := make([]int, sigma)
	for i, s := range seq {
		if got.Access(i) != s {
			t.Fatalf("Access(%d) = %d, want %d", i, got.Access(i), s)
		}
		if got.Rank(s, i) != counts[s] {
			t.Fatalf("Rank(%d,%d) = %d, want %d", s, i, got.Rank(s, i), counts[s])
		}
		b, r := got.AccessRank(i)
		if b != s || r != counts[s] {
			t.Fatalf("AccessRank(%d) = (%d,%d), want (%d,%d)", i, b, r, s, counts[s])
		}
		counts[s]++
	}
}

func TestFlatHWTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := [][2]int{{0, 1}, {1, 1}, {50, 2}, {2000, 17}, {5000, 300}}
	for _, spec := range []BitvecSpec{PlainSpec, RRRSpec(63)} {
		for _, cs := range cases {
			n, sigma := cs[0], cs[1]
			seq := randSeq(n, sigma, rng)
			orig := NewHWT(seq, sigma, spec)
			w := flat.NewWriter()
			orig.AppendFlat(w)
			c := flat.NewCursor(w.Words())
			view, err := ViewHWT(c)
			if err != nil {
				t.Fatalf("n=%d sigma=%d: %v", n, sigma, err)
			}
			if c.Remaining() != 0 {
				t.Fatalf("n=%d sigma=%d: %d words left over", n, sigma, c.Remaining())
			}
			checkHWTEqual(t, seq, sigma, view)
		}
	}
}

// Perturbing any single word must yield a typed error or a structure
// whose reads stay in recoverable territory — the view itself must
// never panic.
func TestFlatHWTCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	seq := randSeq(1500, 40, rng)
	orig := NewHWT(seq, 40, RRRSpec(31))
	w := flat.NewWriter()
	orig.AppendFlat(w)
	base := w.Words()
	for i := range base {
		for _, delta := range []uint64{1, ^uint64(0), 1 << 33} {
			mut := append([]uint64(nil), base...)
			mut[i] += delta
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("word %d +%#x: panic in view: %v", i, delta, r)
					}
				}()
				_, _ = ViewHWT(flat.NewCursor(mut))
			}()
		}
	}
}
