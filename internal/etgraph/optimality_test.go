package etgraph

import (
	"math"
	"math/rand"
	"testing"

	"cinct/internal/entropy"
)

// TestTheorem3Exhaustive verifies the optimality theorem directly on a
// small instance: among ALL valid RML functions (every combination of
// per-context label permutations), the bigram-sorted assignment attains
// the minimum H0 of the label multiset. The label multiset of φ(Tbwt)
// is determined by the bigram counts alone — each occurrence of bigram
// "w w′" contributes one occurrence of φ(w|w′) — so entropies can be
// computed from the ET-graph without building the index.
func TestTheorem3Exhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		// Small random text: sigma ≤ 5 keeps the labeling space tiny.
		sigma := 3 + rng.Intn(3)
		text := make([]uint32, 60+rng.Intn(60))
		for i := range text {
			text[i] = uint32(rng.Intn(sigma))
		}
		g := Build(text, sigma, BigramSorted, 0, nil)
		bigrams := bigramCounts(text)

		// Collect per-context bigram count vectors.
		var contexts [][]int64
		for wp := uint32(0); int(wp) < sigma; wp++ {
			es := g.Edges(wp)
			if len(es) == 0 {
				continue
			}
			counts := make([]int64, len(es))
			for i, e := range es {
				counts[i] = bigrams[[2]uint32{e.To, wp}]
			}
			contexts = append(contexts, counts)
		}

		// H0 of the bigram-sorted labeling: context counts are already
		// descending, so label i+1 receives counts[i].
		optimal := labelEntropy(contexts, nil)

		// Exhaustively try every combination of permutations (capped:
		// skip trials whose labeling space is too large).
		space := 1
		for _, c := range contexts {
			space *= factorial(len(c))
			if space > 5000 {
				break
			}
		}
		if space > 5000 {
			continue
		}
		best := math.Inf(1)
		perms := make([][]int, len(contexts))
		var walk func(d int)
		walk = func(d int) {
			if d == len(contexts) {
				h := labelEntropy(contexts, perms)
				if h < best {
					best = h
				}
				return
			}
			permute(len(contexts[d]), func(p []int) {
				perms[d] = p
				walk(d + 1)
			})
		}
		walk(0)

		if optimal > best+1e-9 {
			t.Fatalf("trial %d: bigram-sorted H0=%.6f but a labeling achieves %.6f",
				trial, optimal, best)
		}
	}
}

// labelEntropy computes H0 of the global label histogram: context d's
// count vector is assigned labels by perms[d] (identity if perms is
// nil or perms[d] is nil — counts[i] gets label i+1).
func labelEntropy(contexts [][]int64, perms [][]int) float64 {
	hist := map[int]int64{}
	for d, counts := range contexts {
		for i, c := range counts {
			label := i + 1
			if perms != nil && perms[d] != nil {
				label = perms[d][i] + 1
			}
			hist[label] += c
		}
	}
	flat := make([]uint32, 0, 256)
	for label, c := range hist {
		for k := int64(0); k < c; k++ {
			flat = append(flat, uint32(label))
		}
	}
	return entropy.H0(flat)
}

// permute calls f with every permutation of [0, n).
func permute(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
