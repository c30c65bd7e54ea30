package wavelet

import (
	"math/rand"
	"testing"
)

// TestHotPathAllocs asserts that Access, Rank and AccessRank — the
// per-LF-step wavelet operations behind every backward-search step —
// allocate nothing, for both the Huffman-shaped tree and the matrix,
// including an HWT whose nodes mix plain and RRR vectors.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	seq := randSeq(50_000, 40, rng)
	mixed := ruleSeqs()["skewed"]
	for _, tc := range []struct {
		name  string
		seq   []uint32
		sigma int
		spec  BitvecSpec
	}{
		{"plain", seq, 41, PlainSpec},
		{"rrr63", seq, 41, RRRSpec(63)},
		{"mixed", mixed.seq, mixed.sigma, RRRSpec(63)},
	} {
		seq := tc.seq
		h := NewHWT(seq, tc.sigma, tc.spec)
		w := NewWM(seq, tc.sigma, tc.spec)
		if tc.name == "mixed" {
			if plain, rrr := nodeKinds(h); plain == 0 || rrr == 0 {
				t.Fatalf("mixed tree has %d plain and %d RRR nodes", plain, rrr)
			}
		}
		// The deepest symbol's walk crosses the most nodes: in the mixed
		// tree, the RRR root and plain nodes below it.
		deep := 0
		for i, c := range seq {
			if h.Depth(c) > h.Depth(seq[deep]) {
				deep = i
			}
		}
		var sinkC uint32
		var sinkR int
		cases := []struct {
			name string
			fn   func()
		}{
			{"HWT.Access", func() { sinkC = h.Access(deep) }},
			{"HWT.Rank", func() { sinkR = h.Rank(seq[deep], len(seq)-1) }},
			{"HWT.AccessRank", func() {
				c, r := h.AccessRank(deep)
				sinkC, sinkR = c, r
			}},
			{"WM.Access", func() { sinkC = w.Access(len(seq) / 2) }},
			{"WM.Rank", func() { sinkR = w.Rank(seq[7], len(seq)-1) }},
			{"WM.AccessRank", func() {
				c, r := w.AccessRank(len(seq) / 3)
				sinkC, sinkR = c, r
			}},
		}
		for _, fc := range cases {
			if got := testing.AllocsPerRun(200, fc.fn); got != 0 {
				t.Errorf("%s (%s): %v allocs/op, want 0", fc.name, tc.name, got)
			}
		}
		_ = sinkC
		_ = sinkR
	}
}
