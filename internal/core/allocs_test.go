package core

import (
	"math/rand"
	"testing"
)

// TestHotPathAllocs asserts that the per-step FM-index operations —
// LF, contextOf, Locate, RowOf and the full SuffixRange backward
// search — allocate nothing. The backward search runs one PseudoRank per
// pattern symbol and locate walks LF until a marked row; any per-step
// allocation would swamp the zero-copy serving path this package
// feeds.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	text, sigma := markovText(rng, 40, 30, 25, 3)
	ix := Build(text, sigma, DefaultOptions())
	pat := text[5:9]
	var sinkI int64
	var sinkU uint32
	var sinkB bool
	cases := []struct {
		name string
		fn   func()
	}{
		{"LF", func() {
			next, sym := ix.LF(int64(ix.Len() / 2))
			sinkI, sinkU = next, sym
		}},
		{"contextOf", func() { sinkU = ix.contextOf(int64(ix.Len() / 3)) }},
		{"Locate", func() { sinkI = ix.Locate(int64(ix.Len() / 2)) }},
		{"LocateSteps", func() {
			// The stats-accounted form the Search hot path uses: the
			// step count must ride back for free.
			pos, steps := ix.LocateSteps(int64(ix.Len() / 2))
			sinkI = pos + steps
		}},
		{"RowOf", func() { sinkI = ix.RowOf(int64(ix.Len()/2 + 1)) }},
		{"SuffixRange", func() {
			sp, ep, ok := ix.SuffixRange(pat)
			sinkI, sinkB = sp+ep, ok
		}},
	}
	for _, tc := range cases {
		if got := testing.AllocsPerRun(200, tc.fn); got != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, got)
		}
	}
	_ = sinkI
	_ = sinkU
	_ = sinkB
}
