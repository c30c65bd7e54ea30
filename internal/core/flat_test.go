package core

import (
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"cinct/internal/bitvec"
	"cinct/internal/flat"
)

func TestFlatIndexRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	text, sigma := markovText(rng, 30, 25, 20, 3)
	for _, opt := range []Options{DefaultOptions(), {Spec: DefaultOptions().Spec}} {
		orig := Build(text, sigma, opt)
		w := flat.NewWriter()
		orig.AppendFlat(w)
		c := flat.NewCursor(w.Words())
		view, err := ViewFlat(c, false)
		if err != nil {
			t.Fatal(err)
		}
		if c.Remaining() != 0 {
			t.Fatalf("%d words left over", c.Remaining())
		}
		if view.Len() != orig.Len() || view.Sigma() != orig.Sigma() ||
			view.MaxLabel() != orig.MaxLabel() || view.SampleRate() != orig.SampleRate() {
			t.Fatal("viewed header mismatch")
		}
		for trial := 0; trial < 200; trial++ {
			m := 1 + rng.Intn(5)
			start := rng.Intn(len(text) - m)
			pat := text[start : start+m]
			s1, e1, ok1 := orig.SuffixRange(pat)
			s2, e2, ok2 := view.SuffixRange(pat)
			if s1 != s2 || e1 != e2 || ok1 != ok2 {
				t.Fatalf("trial %d: ranges differ: [%d,%d)%v vs [%d,%d)%v",
					trial, s1, e1, ok1, s2, e2, ok2)
			}
		}
		for trial := 0; trial < 50; trial++ {
			j := int64(rng.Intn(len(text)))
			a := orig.Extract(j, 10)
			b := view.Extract(j, 10)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("extract differs at row %d", j)
				}
			}
			if opt.SASample > 0 && orig.Locate(j) != view.Locate(j) {
				t.Fatalf("Locate(%d) differs", j)
			}
		}
	}
}

// ViewFlat itself must never panic on corrupt words — it either
// errors or hands back a structurally bounded index — in either locate
// layout. Semantic corruption, a lying sample value above all, may
// still surface as a panic inside Locate or RowOf, which the search
// layer contains as a typed error; what must not happen is a walk past
// the step cap, a located position outside [0, n), or — when only the
// samples are corrupt, so LF is sound — a row outside [0, n).
func TestFlatIndexCorruptView(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	text, sigma := markovText(rng, 15, 12, 10, 3)
	orig := Build(text, sigma, DefaultOptions())
	n := int64(orig.Len())
	v4, v3 := flatLayouts(orig)
	ns, ni := orig.samples.Len(), orig.isaSamples.Len()
	for _, layout := range []struct {
		name         string
		words        []uint64
		int32Samples bool
		sampleWords  int // the trailing SA and ISA sample arrays
	}{
		{"v4", v4, false, orig.samples.FlatWords() + orig.isaSamples.FlatWords()},
		{"v3", v3, true, 2 + (ns+1)/2 + (ni+1)/2},
	} {
		base := layout.words
		step := 1
		if len(base) > 4096 {
			step = len(base) / 4096
		}
		for i := 0; i < len(base); i += step {
			for _, delta := range []uint64{1, ^uint64(0), 1 << 50} {
				mut := append([]uint64(nil), base...)
				mut[i] += delta
				var ix *Index
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("%s word %d +%#x: panic in ViewFlat: %v", layout.name, i, delta, r)
						}
					}()
					ix, _ = ViewFlat(flat.NewCursor(mut), layout.int32Samples)
				}()
				if ix == nil || ix.SampleRate() == 0 {
					continue
				}
				for j := int64(0); j < n; j++ {
					func() {
						defer func() { _ = recover() }()
						if p, steps := ix.LocateSteps(j); p < 0 || p >= n || steps > n+1 {
							t.Fatalf("%s word %d +%#x: LocateSteps(%d) = %d after %d steps", layout.name, i, delta, j, p, steps)
						}
					}()
					func() {
						defer func() { _ = recover() }()
						if r := ix.RowOf(j); i >= len(base)-layout.sampleWords && (r < 0 || r >= n) {
							t.Fatalf("%s word %d +%#x: RowOf(%d) = %d", layout.name, i, delta, j, r)
						}
					}()
				}
			}
		}
	}
}

// TestFlatIndexSampleWidths pins the version-4 width bounds: SA samples
// (SA/rate) at most bits.Len(n/rate) wide and rows at most bits.Len(n),
// so no header can scale a sample past 2n. A section at exactly the
// bounds views and locates correctly; one bit wider fails the view.
func TestFlatIndexSampleWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	text, sigma := markovText(rng, 20, 15, 10, 3)
	orig := Build(text, sigma, DefaultOptions())
	n, rate := orig.Len(), orig.SampleRate()
	sa := bruteSA(text)
	repack := func(p *bitvec.PackedInts, width int) *bitvec.PackedInts {
		vals := make([]uint64, p.Len())
		for i := range vals {
			vals[i] = p.Get(i)
		}
		return bitvec.PackIntsWidth(vals, uint(width))
	}
	// AppendFlat would repack to the least widths, so the sample arrays
	// are appended by hand behind the rest of the written index.
	v4, _ := flatLayouts(orig)
	head := v4[:len(v4)-orig.samples.FlatWords()-orig.isaSamples.FlatWords()]
	for _, extra := range []int{0, 1} {
		for _, which := range []string{"sa", "isa"} {
			ix := *orig
			if which == "sa" {
				ix.samples = repack(orig.samples, bits.Len(uint(n/rate))+extra)
			} else {
				ix.isaSamples = repack(orig.isaSamples, bits.Len(uint(n))+extra)
			}
			w := flat.NewWriter()
			for _, x := range head {
				w.U64(x)
			}
			ix.samples.AppendFlat(w)
			ix.isaSamples.AppendFlat(w)
			view, err := ViewFlat(flat.NewCursor(w.Words()), false)
			if extra > 0 {
				if !errors.Is(err, flat.ErrCorrupt) {
					t.Fatalf("%s one bit past its bound: err = %v, want ErrCorrupt", which, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s at its bound: %v", which, err)
			}
			for j, p := range sa {
				if got := view.Locate(int64(j)); got != int64(p) {
					t.Fatalf("%s at its bound: Locate(%d) = %d, want %d", which, j, got, p)
				}
				if got := view.RowOf(int64(p)); got != int64(j) {
					t.Fatalf("%s at its bound: RowOf(%d) = %d, want %d", which, p, got, j)
				}
			}
		}
	}
}
