package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"cinct/internal/etgraph"
	"cinct/internal/flat"
	"cinct/internal/suffix"
	"cinct/internal/wavelet"
)

// paperText is T = FEBA$CBA$CB$DA$# (#=0 $=1 A=2 … F=7).
func paperText() ([]uint32, int) {
	return []uint32{7, 6, 3, 2, 1, 4, 3, 2, 1, 4, 3, 1, 5, 2, 1, 0}, 8
}

// markovText builds a trajectory-string-like sequence: random walks on
// a sparse successor map, reversed, '$'-separated, '#'-terminated.
func markovText(rng *rand.Rand, nWalks, walkLen, nStates, deg int) ([]uint32, int) {
	succ := make([][]uint32, nStates)
	for s := range succ {
		succ[s] = make([]uint32, deg)
		for d := range succ[s] {
			succ[s][d] = uint32(rng.Intn(nStates))
		}
	}
	sigma := nStates + 2
	var text []uint32
	for w := 0; w < nWalks; w++ {
		walk := make([]uint32, walkLen)
		cur := uint32(rng.Intn(nStates))
		for i := range walk {
			walk[i] = cur + 2
			// Biased choice: favor successor 0 to get skewed bigrams.
			d := 0
			if rng.Float64() > 0.6 {
				d = rng.Intn(deg)
			}
			cur = succ[cur][d]
		}
		for i := walkLen - 1; i >= 0; i-- { // reversed, per Def. 2
			text = append(text, walk[i])
		}
		text = append(text, 1)
	}
	text = append(text, 0)
	return text, sigma
}

// naiveOccurrences counts occurrences of pat as a substring of text.
func naiveOccurrences(text, pat []uint32) int {
	if len(pat) == 0 {
		return len(text)
	}
	count := 0
outer:
	for i := 0; i+len(pat) <= len(text); i++ {
		for k := range pat {
			if text[i+k] != pat[k] {
				continue outer
			}
		}
		count++
	}
	return count
}

func buildOpts() map[string]Options {
	return map[string]Options{
		"rrr63":  {Spec: wavelet.RRRSpec(63), Strategy: etgraph.BigramSorted, SASample: 8},
		"rrr15":  {Spec: wavelet.RRRSpec(15), Strategy: etgraph.BigramSorted, SASample: 8},
		"plain":  {Spec: wavelet.PlainSpec, Strategy: etgraph.BigramSorted, SASample: 8},
		"random": {Spec: wavelet.RRRSpec(31), Strategy: etgraph.RandomShuffle, Seed: 5, SASample: 8},
	}
}

func TestPaperExampleSuffixRange(t *testing.T) {
	text, sigma := paperText()
	ix := Build(text, sigma, DefaultOptions())
	// R(BA) = [9, 11) per Fig. 2. Pattern in text order: B A = 3 2.
	sp, ep, ok := ix.SuffixRange([]uint32{3, 2})
	if !ok || sp != 9 || ep != 11 {
		t.Fatalf("R(BA) = [%d,%d),%v want [9,11)", sp, ep, ok)
	}
	// R(A) = [5, 8): C[A]=5, C[B]=8.
	sp, ep, ok = ix.SuffixRange([]uint32{2})
	if !ok || sp != 5 || ep != 8 {
		t.Fatalf("R(A) = [%d,%d),%v want [5,8)", sp, ep, ok)
	}
	// "DA" never occurs in text order D,A? In T, "DA" appears once
	// (positions 12,13).
	if c := ix.Count([]uint32{5, 2}); c != 1 {
		t.Fatalf("Count(DA) = %d, want 1", c)
	}
	// "AD" never occurs in T.
	if _, _, ok := ix.SuffixRange([]uint32{2, 5}); ok {
		t.Fatal("AD should not be found")
	}
}

func TestSuffixRangeAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, opt := range buildOpts() {
		text, sigma := markovText(rng, 40, 30, 25, 3)
		ix := Build(text, sigma, opt)
		for trial := 0; trial < 300; trial++ {
			// Random patterns: half sampled from the text (should hit),
			// half random (mostly miss). Neither kind contains the '#'
			// terminator — paper queries are P ∈ E*, and '#' patterns can
			// match the cyclic wraparound rotation.
			var pat []uint32
			m := 1 + rng.Intn(6)
			if trial%2 == 0 {
				start := rng.Intn(len(text) - m - 1)
				pat = append(pat, text[start:start+m]...)
			} else {
				for k := 0; k < m; k++ {
					pat = append(pat, 1+uint32(rng.Intn(sigma-1)))
				}
			}
			want := naiveOccurrences(text, pat)
			got := int(ix.Count(pat))
			if got != want {
				t.Fatalf("%s trial %d: Count(%v) = %d, want %d", name, trial, pat, got, want)
			}
		}
	}
}

func TestPseudoRankMatchesDirectRank(t *testing.T) {
	// PseudoRank must equal rank on the raw BWT wherever its
	// precondition holds (Theorem 2).
	rng := rand.New(rand.NewSource(2))
	text, sigma := markovText(rng, 20, 25, 15, 3)
	sa := suffix.Array(text, sigma)
	bwt := suffix.BWT(text, sa)
	ix := BuildFromBWT(text, bwt, sa, sigma, DefaultOptions())

	naiveRank := func(w uint32, j int64) int64 {
		var r int64
		for _, c := range bwt[:j] {
			if c == w {
				r++
			}
		}
		return r
	}
	for wp := uint32(0); int(wp) < sigma; wp++ {
		for _, e := range ix.Graph().Edges(wp) {
			label, ok := ix.Graph().Label(e.To, wp)
			if !ok {
				t.Fatal("edge lost")
			}
			z := ix.Graph().Z(wp, label)
			lo, hi := ix.C(wp), ix.C(wp+1)
			for j := lo; j <= hi; j++ {
				got := ix.pseudoRank(int(j), label, z)
				want := naiveRank(e.To, j)
				if got != want {
					t.Fatalf("pseudoRank(w=%d, w'=%d, j=%d) = %d, want %d",
						e.To, wp, j, got, want)
				}
			}
		}
	}
}

func TestExtractMatchesText(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	text, sigma := markovText(rng, 30, 20, 20, 3)
	sa := suffix.Array(text, sigma)
	bwt := suffix.BWT(text, sa)
	ix := BuildFromBWT(text, bwt, sa, sigma, DefaultOptions())
	n := len(text)
	for trial := 0; trial < 200; trial++ {
		j := rng.Intn(n)
		l := 1 + rng.Intn(15)
		got := ix.Extract(int64(j), l)
		// Expected: T[SA[j]-l, SA[j]) cyclically.
		i := int(sa[j])
		for k := 0; k < l; k++ {
			want := text[((i-l+k)%n+n)%n]
			if got[k] != want {
				t.Fatalf("Extract(%d,%d)[%d] = %d, want %d (SA[j]=%d)", j, l, k, got[k], want, i)
			}
		}
	}
}

func TestExtractWholeText(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	text, sigma := markovText(rng, 10, 15, 12, 2)
	sa := suffix.Array(text, sigma)
	bwt := suffix.BWT(text, sa)
	ix := BuildFromBWT(text, bwt, sa, sigma, DefaultOptions())
	n := len(text)
	// Row 0 is the '#' suffix: SA[0] = n-1. Extract(0, n-1) yields
	// T[0, n-1): everything except the terminator.
	if sa[0] != int32(n-1) {
		t.Fatalf("SA[0] = %d, want %d", sa[0], n-1)
	}
	got := ix.Extract(0, n-1)
	for k := 0; k < n-1; k++ {
		if got[k] != text[k] {
			t.Fatalf("whole-text extract differs at %d", k)
		}
	}
}

// TestLocateMatchesSA pins Locate, and Extract from the located row,
// against a brute-force suffix array in every form the locate section
// takes (see locateCases). A walk never takes a rate's worth of steps:
// the sampled multiple at or below a position is fewer than rate back.
func TestLocateMatchesSA(t *testing.T) {
	for _, lc := range locateCases(t) {
		n := len(lc.text)
		for name, ix := range lc.forms {
			for j, p := range lc.sa {
				got, steps := ix.LocateSteps(int64(j))
				if got != int64(p) || steps >= int64(lc.rate) {
					t.Fatalf("rate %d %s: LocateSteps(%d) = %d after %d steps, want %d", lc.rate, name, j, got, steps, p)
				}
				l := 1 + j%9
				want := make([]uint32, l)
				for k := range want {
					want[k] = lc.text[((p-l+k)%n+n)%n]
				}
				if got := ix.Extract(int64(j), l); !slices.Equal(got, want) {
					t.Fatalf("rate %d %s: Extract(%d,%d) = %v, want %v", lc.rate, name, j, l, got, want)
				}
			}
		}
	}
}

// locateCase is one text and sample rate with the index in each form
// its locate section can take: built (samples packed at build), viewed
// from the version-4 flat layout, and viewed from the version-3 one
// (int32 samples at width 32, unscaled).
type locateCase struct {
	rate  int
	text  []uint32
	sa    []int
	forms map[string]*Index
}

// locateCases covers rates whose packed widths straddle words (1, 2, 3,
// 7) and the current and former defaults (40, 64).
func locateCases(t *testing.T) []locateCase {
	t.Helper()
	rng := rand.New(rand.NewSource(10))
	var cases []locateCase
	for _, rate := range []int{1, 2, 3, 7, 40, 64} {
		text, sigma := markovText(rng, 20, 25, 15, 3)
		opt := DefaultOptions()
		opt.SASample = rate
		ix := Build(text, sigma, opt)
		v4, v3 := flatViews(t, ix)
		cases = append(cases, locateCase{rate, text, bruteSA(text),
			map[string]*Index{"built": ix, "v4-view": v4, "v3-view": v3}})
	}
	return cases
}

// flatViews views ix back from both flat layouts (see flatLayouts).
func flatViews(t *testing.T, ix *Index) (v4, v3 *Index) {
	t.Helper()
	w4, w3 := flatLayouts(ix)
	var err error
	if v4, err = ViewFlat(flat.NewCursor(w4), false); err != nil {
		t.Fatal(err)
	}
	if v3, err = ViewFlat(flat.NewCursor(w3), true); err != nil {
		t.Fatal(err)
	}
	return v4, v3
}

// flatLayouts writes ix in the flat layout, version 4 as AppendFlat
// writes it and version 3 with the locate samples as the int32 slices
// that container version held.
func flatLayouts(ix *Index) (v4, v3 []uint64) {
	w := flat.NewWriter()
	ix.AppendFlat(w)
	v4 = w.Words()
	old := flat.NewWriter()
	for _, x := range v4[:len(v4)-ix.samples.FlatWords()-ix.isaSamples.FlatWords()] {
		old.U64(x)
	}
	sa := make([]int32, ix.samples.Len())
	for i := range sa {
		sa[i] = int32(int64(ix.samples.Get(i)) * ix.saScale)
	}
	isa := make([]int32, ix.isaSamples.Len())
	for i := range isa {
		isa[i] = int32(ix.isaSamples.Get(i))
	}
	old.I32s(sa)
	old.I32s(isa)
	return v4, old.Words()
}

// bruteSA sorts the suffixes of text by direct comparison.
func bruteSA(text []uint32) []int {
	sa := make([]int, len(text))
	for i := range sa {
		sa[i] = i
	}
	sort.Slice(sa, func(a, b int) bool { return slices.Compare(text[sa[a]:], text[sa[b]:]) < 0 })
	return sa
}

func TestLocatePanicsWithoutSamples(t *testing.T) {
	text, sigma := paperText()
	opt := DefaultOptions()
	opt.SASample = 0
	ix := Build(text, sigma, opt)
	defer func() {
		if recover() == nil {
			t.Fatal("Locate should panic without samples")
		}
	}()
	ix.Locate(0)
}

func TestLFWalkVisitsAllRows(t *testing.T) {
	// LF is a permutation of [0, n): walking n steps from row 0 must
	// visit every row exactly once.
	text, sigma := paperText()
	ix := Build(text, sigma, DefaultOptions())
	n := ix.Len()
	seen := make([]bool, n)
	j := int64(0)
	for k := 0; k < n; k++ {
		if seen[j] {
			t.Fatalf("row %d revisited after %d steps", j, k)
		}
		seen[j] = true
		j, _ = ix.LF(j)
	}
	if j != 0 {
		t.Fatalf("LF walk did not return to row 0 (at %d)", j)
	}
}

func TestEmptyPattern(t *testing.T) {
	text, sigma := paperText()
	ix := Build(text, sigma, DefaultOptions())
	sp, ep, ok := ix.SuffixRange(nil)
	if !ok || sp != 0 || ep != int64(ix.Len()) {
		t.Fatalf("empty pattern = [%d,%d),%v", sp, ep, ok)
	}
}

func TestOutOfAlphabetPattern(t *testing.T) {
	text, sigma := paperText()
	ix := Build(text, sigma, DefaultOptions())
	if _, _, ok := ix.SuffixRange([]uint32{200}); ok {
		t.Fatal("out-of-alphabet symbol should not match")
	}
	if _, _, ok := ix.SuffixRange([]uint32{3, 200}); ok {
		t.Fatal("out-of-alphabet symbol should not match")
	}
}

func TestSizesAndStats(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	text, sigma := markovText(rng, 50, 40, 30, 3)
	ix := Build(text, sigma, DefaultOptions())
	s := ix.Sizes()
	if s.LabeledWT <= 0 || s.ETGraph <= 0 || s.CArray <= 0 || s.Locate <= 0 {
		t.Fatalf("sizes should be positive: %+v", s)
	}
	if s.Total() != s.LabeledWT+s.ETGraph+s.CArray+s.Locate {
		t.Fatal("Total mismatch")
	}
	if ix.BitsPerSymbol(true) <= ix.BitsPerSymbol(false) {
		t.Fatal("graph-inclusive size must exceed exclusive size")
	}
	if ix.Stats.Total <= 0 || ix.Stats.BWT <= 0 {
		t.Fatal("build stats not recorded")
	}
	if ix.MaxLabel() < 1 || ix.MaxLabel() > sigma {
		t.Fatalf("MaxLabel = %d", ix.MaxLabel())
	}
}

func TestCountQuickAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	text, sigma := markovText(rng, 25, 25, 12, 3)
	ix := Build(text, sigma, DefaultOptions())
	f := func(seedRaw uint32, mRaw uint8) bool {
		r := rand.New(rand.NewSource(int64(seedRaw)))
		m := 1 + int(mRaw)%5
		start := r.Intn(len(text) - m)
		pat := text[start : start+m]
		return int(ix.Count(pat)) == naiveOccurrences(text, pat)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
