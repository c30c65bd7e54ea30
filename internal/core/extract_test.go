package core

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRowOfInvertsSA pins RowOf, and ExtractRange which walks from it,
// against a brute-force suffix array in every form the locate section
// takes (see locateCases).
func TestRowOfInvertsSA(t *testing.T) {
	for _, lc := range locateCases(t) {
		isa := make([]int64, len(lc.text))
		for j, p := range lc.sa {
			isa[p] = int64(j)
		}
		for name, ix := range lc.forms {
			for pos := range lc.text {
				if got := ix.RowOf(int64(pos)); got != isa[pos] {
					t.Fatalf("rate %d %s: RowOf(%d) = %d, want %d", lc.rate, name, pos, got, isa[pos])
				}
			}
			for a := 0; a < len(lc.text); a += 5 {
				b := min(a+1+a%23, len(lc.text))
				got := ix.ExtractRange(int64(a), int64(b))
				if !slices.Equal(got, lc.text[a:b]) {
					t.Fatalf("rate %d %s: ExtractRange(%d,%d) = %v, want %v", lc.rate, name, a, b, got, lc.text[a:b])
				}
			}
		}
	}
}

func TestExtractRangeMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text, sigma := markovText(rng, 20, 18, 15, 3)
	ix := Build(text, sigma, DefaultOptions())
	n := int64(len(text))
	for trial := 0; trial < 300; trial++ {
		a := int64(rng.Intn(len(text)))
		b := a + int64(rng.Intn(len(text)-int(a)+1))
		got := ix.ExtractRange(a, b)
		if int64(len(got)) != b-a {
			t.Fatalf("ExtractRange(%d,%d) length %d", a, b, len(got))
		}
		for k := range got {
			if got[k] != text[a+int64(k)] {
				t.Fatalf("ExtractRange(%d,%d)[%d] = %d, want %d", a, b, k, got[k], text[a+int64(k)])
			}
		}
	}
	// Full-text extraction.
	full := ix.ExtractRange(0, n)
	for i := range text {
		if full[i] != text[i] {
			t.Fatalf("full extraction differs at %d", i)
		}
	}
	if len(ix.ExtractRange(5, 5)) != 0 {
		t.Fatal("empty range should return nil/empty")
	}
}

func TestExtractRangePanicsOnBadRange(t *testing.T) {
	text, sigma := paperText()
	ix := Build(text, sigma, DefaultOptions())
	for _, c := range [][2]int64{{-1, 3}, {3, 2}, {0, int64(len(text)) + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ExtractRange(%d,%d) should panic", c[0], c[1])
				}
			}()
			ix.ExtractRange(c[0], c[1])
		}()
	}
}
