package etgraph

import (
	"math/rand"
	"testing"

	"cinct/internal/entropy"
)

// paperText is T = FEBA$CBA$CB$DA$# over symbols #=0 $=1 A=2 … F=7.
func paperText() ([]uint32, int) {
	return []uint32{7, 6, 3, 2, 1, 4, 3, 2, 1, 4, 3, 1, 5, 2, 1, 0}, 8
}

func TestPaperETGraph(t *testing.T) {
	text, sigma := paperText()
	g := Build(text, sigma, BigramSorted, 0, nil)

	const (
		symHash = 0
		symSep  = 1
		symA    = 2
		symB    = 3
		symC    = 4
		symD    = 5
		symE    = 6
		symF    = 7
	)
	// Fig. 6(a): from A the movements are A→B (bigram "BA" ×2) labeled 1
	// and A→D (bigram "DA" ×1) labeled 2.
	if l, ok := g.Label(symB, symA); !ok || l != 1 {
		t.Fatalf("φ(B|A) = %d,%v want 1", l, ok)
	}
	if l, ok := g.Label(symD, symA); !ok || l != 2 {
		t.Fatalf("φ(D|A) = %d,%v want 2", l, ok)
	}
	// Movements out of B: B→E ("EB") and B→C ("CB"×2) and B→$ ("$B")?
	// Bigrams with previous symbol B: positions where text[i+1]==B:
	// "EB" (i=1), "CB" (i=5), "CB" (i=9). So Nout(B) = {E, C}:
	// C labeled 1 (count 2), E labeled 2 (count 1).
	if l, ok := g.Label(symC, symB); !ok || l != 1 {
		t.Fatalf("φ(C|B) = %d,%v want 1", l, ok)
	}
	if l, ok := g.Label(symE, symB); !ok || l != 2 {
		t.Fatalf("φ(E|B) = %d,%v want 2", l, ok)
	}
	// No edge B→D.
	if _, ok := g.Label(symD, symB); ok {
		t.Fatal("φ(D|B) should not exist")
	}
	// Wraparound: "#F" means F→# … i.e. bigram (text[15]=#, text[0]=F):
	// edge (F → #)? The bigram is (w=#, w'=F): edge (F, #) with w'=F.
	if l, ok := g.Label(symHash, symF); !ok || l != 1 {
		t.Fatalf("φ(#|F) = %d,%v want 1", l, ok)
	}
	// Out of $: "$C" ×2, "$D" ×1 — wait bigrams (w,w') with w'=$:
	// positions with text[i+1]=$: "A$" ×3, "B$" ×1 — those are edges
	// ($→A) and ($→B): from a boundary the next reversed symbol.
	if l, ok := g.Label(symA, symSep); !ok || l != 1 {
		t.Fatalf("φ(A|$) = %d,%v want 1", l, ok)
	}
	if l, ok := g.Label(symB, symSep); !ok || l != 2 {
		t.Fatalf("φ(B|$) = %d,%v want 2", l, ok)
	}
}

func TestDecodeInvertsLabel(t *testing.T) {
	text, sigma := paperText()
	g := Build(text, sigma, BigramSorted, 0, nil)
	for wp := uint32(0); int(wp) < sigma; wp++ {
		for _, e := range g.Edges(wp) {
			l, ok := g.Label(e.To, wp)
			if !ok {
				t.Fatalf("edge (%d,%d) lost", wp, e.To)
			}
			if g.Decode(l, wp) != e.To {
				t.Fatalf("Decode(Label) mismatch at (%d,%d)", wp, e.To)
			}
		}
	}
}

func TestLabelsAreDistinctPerContext(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	text := make([]uint32, 5000)
	for i := range text {
		text[i] = uint32(rng.Intn(50))
	}
	for _, strat := range []Strategy{BigramSorted, RandomShuffle} {
		g := Build(text, 50, strat, 7, nil)
		for wp := uint32(0); wp < 50; wp++ {
			seen := map[uint32]bool{}
			for i, e := range g.Edges(wp) {
				if seen[e.To] {
					t.Fatalf("duplicate out-edge %d from %d", e.To, wp)
				}
				seen[e.To] = true
				l, ok := g.Label(e.To, wp)
				if !ok || int(l) != i+1 {
					t.Fatalf("label of edge %d from %d = %d,%v want %d", e.To, wp, l, ok, i+1)
				}
			}
		}
	}
}

func TestBigramSortedIsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	text := make([]uint32, 20000)
	for i := range text {
		text[i] = uint32(rng.Intn(30))
	}
	g := Build(text, 30, BigramSorted, 0, nil)
	counts := bigramCounts(text)
	for wp := uint32(0); wp < 30; wp++ {
		es := g.Edges(wp)
		for i := 1; i < len(es); i++ {
			if counts[[2]uint32{es[i].To, wp}] > counts[[2]uint32{es[i-1].To, wp}] {
				t.Fatalf("counts not descending out of %d", wp)
			}
		}
	}
}

// Labeling the text itself with bigram-sorted RML must give lower (or
// equal) H0 than a random labeling — the optimality of Theorem 3
// observed on the first-order conversion of Eq. 14.
func TestBigramLabelingLowersEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Strongly biased transitions: from each state, one successor is
	// much more likely.
	sigma := 40
	next := make([][]uint32, sigma)
	for s := range next {
		perm := rng.Perm(sigma)
		next[s] = []uint32{uint32(perm[0]), uint32(perm[1]), uint32(perm[2]), uint32(perm[3])}
	}
	text := make([]uint32, 50000)
	cur := uint32(0)
	for i := range text {
		r := rng.Float64()
		switch {
		case r < 0.7:
			cur = next[cur][0]
		case r < 0.85:
			cur = next[cur][1]
		case r < 0.95:
			cur = next[cur][2]
		default:
			cur = next[cur][3]
		}
		text[i] = cur
	}
	gOpt := Build(text, sigma, BigramSorted, 0, nil)
	gRnd := Build(text, sigma, RandomShuffle, 99, nil)
	label := func(g *Graph) []uint32 {
		out := make([]uint32, 0, len(text)-1)
		for i := 0; i+1 < len(text); i++ {
			// Movement text[i] -> text[i+1]: in T's reversed encoding the
			// bigram is (text[i+1], text[i]), i.e. Label(to, from) with
			// from = text[i]. Here we label the forward sequence directly
			// using counts of (w, w') = (next, prev) as built from this
			// forward text: Build counted (text[j], text[j+1]) as edge
			// (text[j+1] -> text[j]), so "context" is the *successor*.
			// For an entropy comparison the direction convention only
			// needs to be consistent.
			l, ok := g.Label(text[i], text[i+1])
			if !ok {
				t.Fatal("observed transition missing from ET-graph")
			}
			out = append(out, l)
		}
		return out
	}
	hOpt := entropy.H0(label(gOpt))
	hRnd := entropy.H0(label(gRnd))
	if hOpt > hRnd+1e-9 {
		t.Fatalf("bigram-sorted H0=%.4f exceeds random H0=%.4f", hOpt, hRnd)
	}
	if hOpt > 0.95*hRnd {
		t.Fatalf("expected clear entropy gap: opt=%.4f rnd=%.4f", hOpt, hRnd)
	}
}

func TestGraphStats(t *testing.T) {
	text, sigma := paperText()
	g := Build(text, sigma, BigramSorted, 0, nil)
	if g.MaxOutDegree() < 2 {
		t.Fatalf("MaxOutDegree = %d", g.MaxOutDegree())
	}
	if g.NumEdges() == 0 || g.SizeBits() == 0 {
		t.Fatal("graph should be non-empty")
	}
	if d := g.AvgOutDegree(); d <= 0 || d > float64(g.MaxOutDegree()) {
		t.Fatalf("AvgOutDegree = %v", d)
	}
	if g.Sigma() != sigma {
		t.Fatalf("Sigma = %d", g.Sigma())
	}
}

func TestEmptyText(t *testing.T) {
	g := Build(nil, 4, BigramSorted, 0, nil)
	if g.NumEdges() != 0 || g.MaxOutDegree() != 0 || g.AvgOutDegree() != 0 {
		t.Fatal("empty text should give empty graph")
	}
}

// bigramCounts counts each bigram (w, w′) of text, wraparound
// included: the transition counts Build orders labels by.
func bigramCounts(text []uint32) map[[2]uint32]int64 {
	counts := map[[2]uint32]int64{}
	for i := range text {
		counts[[2]uint32{text[i], text[(i+1)%len(text)]}]++
	}
	return counts
}

func TestZStorage(t *testing.T) {
	text, sigma := paperText()
	g := Build(text, sigma, BigramSorted, 0, func(out [][]uint32) []int64 {
		var z []int64
		for wp, es := range out {
			for i := range es {
				if wp == 2 && i == 0 {
					z = append(z, 42)
				} else {
					z = append(z, 0)
				}
			}
		}
		return z
	})
	if g.Z(2, 1) != 42 {
		t.Fatal("Z round trip failed")
	}
}

// TestBuildPacksCorrections pins what Build hands its corrections
// callback and what it packs: the callback sees every context's
// out-neighbours in label order, and Z, Edges, Label and Decode read
// back exactly that order and the terms it returned.
func TestBuildPacksCorrections(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	text := make([]uint32, 8000)
	for i := range text {
		text[i] = uint32(rng.Intn(40))
	}
	var order [][]uint32
	g := Build(text, 40, BigramSorted, 0, func(out [][]uint32) []int64 {
		order = out
		var z []int64
		for _, es := range out {
			for i := range es {
				z = append(z, int64(i*7)-13)
			}
		}
		return z
	})
	for wp := uint32(0); wp < 40; wp++ {
		es := order[wp]
		if g.OutDegree(wp) != len(es) {
			t.Fatalf("context %d: degree %d, want %d", wp, g.OutDegree(wp), len(es))
		}
		for i, to := range es {
			l, ok := g.Label(to, wp)
			if !ok || int(l) != i+1 {
				t.Fatalf("context %d: Label(%d) = %d,%v want %d", wp, to, l, ok, i+1)
			}
			if g.Decode(l, wp) != to {
				t.Fatalf("context %d: Decode(%d) broken", wp, l)
			}
			if z := g.Z(wp, l); z != int64(i*7)-13 {
				t.Fatalf("context %d: Z(%d) = %d, want %d", wp, l, z, int64(i*7)-13)
			}
		}
		for i, e := range g.Edges(wp) {
			if e.To != es[i] || e.Z != int64(i*7)-13 {
				t.Fatalf("context %d: Edges()[%d] = %+v", wp, i, e)
			}
		}
	}
	if g.SizeBits() <= 0 {
		t.Fatal("packed size must be positive")
	}
}

func TestDecodeUnknownLabelPanics(t *testing.T) {
	text, sigma := paperText()
	g := Build(text, sigma, BigramSorted, 0, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Decode of invalid label should panic")
		}
	}()
	g.Decode(99, 2)
}
