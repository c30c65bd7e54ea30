// Package etgraph builds the empirical transition graph (ET-graph,
// Definition 3) of a trajectory string and the relative movement
// labeling (RML) function φ on its edges (§III-B). The ET-graph has a
// vertex per alphabet symbol and an edge (w′, w) iff the substring
// "w w′" occurs in T — i.e. iff a movement w′→w is observed (T stores
// reversed trajectories). RML assigns each out-edge of w′ a small
// integer label, distinct per w′; the bigram-sorted strategy (most
// frequent transition gets label 1) is the entropy-optimal assignment
// of Theorem 3.
package etgraph

import (
	"fmt"
	"math/rand"
	"sort"

	"cinct/internal/bitvec"
)

// Strategy selects how labels are assigned within each out-vertex set.
type Strategy int

const (
	// BigramSorted assigns label 1 to the most frequent transition,
	// label 2 to the next, … — the optimal strategy of Theorem 3.
	BigramSorted Strategy = iota
	// RandomShuffle assigns the labels of each out-vertex set in a
	// random order (the "random sorting" baseline of Fig. 14).
	RandomShuffle
)

// Edge is one ET-graph edge (w′ → To) with its PseudoRank correction
// term Z_{w′,To} (Eq. 7).
type Edge struct {
	To uint32
	Z  int64
}

// Graph is the ET-graph with an RML labeling, in a CSR layout of packed
// integer arrays — the resident form whose size the paper's experiments
// account for. Row w′ lists its out-edges in label order, so
// φ(tos[starts[w′]+i] | w′) = i+1 and decoding a label is a single
// array access. A graph is immutable once built or viewed.
type Graph struct {
	sigma  int
	edges  int
	maxDeg int

	starts *bitvec.PackedInts // len sigma+1, cumulative out-degrees
	tos    *bitvec.PackedInts // len edges, target symbols in label order
	zs     *bitvec.PackedInts // len edges, zig-zag correction terms
}

// Build scans the trajectory string (including the cyclic wraparound
// bigram, so the BWT row of the full-string rotation is labelable),
// labels its ET-graph and packs it. corrections, when non-nil, is
// handed every context's out-neighbours in label order — out[w′][i] is
// labeled i+1 — and returns their correction terms in the same order,
// context after context; nil leaves every Z at 0, for callers that
// only need the graph's shape. A context whose list corrections sets
// to nil is packed without out-edges (and contributes no terms): the
// index escapes the separator's context that way, after labeling it.
func Build(text []uint32, sigma int, strat Strategy, seed int64, corrections func(out [][]uint32) []int64) *Graph {
	out := make([][]uint32, sigma)
	if n := len(text); n > 0 {
		// counts[w'] maps w -> bigram count of "w w'" in T.
		counts := make([]map[uint32]int64, sigma)
		bump := func(w, wPrime uint32) {
			m := counts[wPrime]
			if m == nil {
				m = make(map[uint32]int64, 4)
				counts[wPrime] = m
			}
			m[w]++
		}
		for i := 0; i+1 < n; i++ {
			bump(text[i], text[i+1])
		}
		if n > 1 {
			bump(text[n-1], text[0]) // wraparound rotation bigram
		}
		var rng *rand.Rand
		if strat == RandomShuffle {
			rng = rand.New(rand.NewSource(seed))
		}
		for wp, m := range counts {
			if len(m) == 0 {
				continue
			}
			es := make([]uint32, 0, len(m))
			for w := range m {
				es = append(es, w)
			}
			sort.Slice(es, func(i, j int) bool {
				if ci, cj := m[es[i]], m[es[j]]; ci != cj {
					return ci > cj
				}
				return es[i] < es[j]
			})
			if strat == RandomShuffle {
				rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
			}
			out[wp] = es
		}
	}
	var z []int64
	if corrections != nil {
		z = corrections(out)
	}
	g := &Graph{sigma: sigma}
	starts := make([]uint64, sigma+1)
	var tos []uint64
	for wp, es := range out {
		starts[wp] = uint64(len(tos))
		for _, w := range es {
			tos = append(tos, uint64(w))
		}
		g.maxDeg = max(g.maxDeg, len(es))
	}
	starts[sigma] = uint64(len(tos))
	g.edges = len(tos)
	zs := make([]uint64, g.edges)
	if corrections != nil {
		if len(z) != g.edges {
			panic(fmt.Sprintf("etgraph: %d correction terms for %d edges", len(z), g.edges))
		}
		for i, v := range z {
			zs[i] = bitvec.ZigZag(v)
		}
	}
	g.starts, g.tos, g.zs = bitvec.PackInts(starts), bitvec.PackInts(tos), bitvec.PackInts(zs)
	return g
}

// Sigma returns the vertex count (alphabet size).
func (g *Graph) Sigma() int { return g.sigma }

// NumEdges returns |E_T|.
func (g *Graph) NumEdges() int { return g.edges }

// MaxOutDegree returns the largest out-vertex set size — the alphabet
// size of the labeled BWT.
func (g *Graph) MaxOutDegree() int { return g.maxDeg }

// AvgOutDegree returns d̄: |E_T| divided by the number of vertices with
// at least one out-edge (Table III's sparsity statistic).
func (g *Graph) AvgOutDegree() float64 {
	nz := 0
	for wp := 0; wp < g.sigma; wp++ {
		if g.starts.Get(wp+1) > g.starts.Get(wp) {
			nz++
		}
	}
	if nz == 0 {
		return 0
	}
	return float64(g.edges) / float64(nz)
}

// Label returns φ(w|w′), the 1-based label of the transition w′→w, or
// ok=false if (w′, w) is not an ET-graph edge — in which case no
// occurrence of the pattern exists (the paper's Line 5 early exit).
// Runs in O(δ) by linear search, as in §III-C3.
func (g *Graph) Label(w, wPrime uint32) (label uint32, ok bool) {
	if int(wPrime) >= g.sigma {
		return 0, false
	}
	lo, hi := int(g.starts.Get(int(wPrime))), int(g.starts.Get(int(wPrime)+1))
	for i := lo; i < hi; i++ {
		if uint32(g.tos.Get(i)) == w {
			return uint32(i-lo) + 1, true
		}
	}
	return 0, false
}

// Decode returns the symbol w with φ(w|w′) = label, in O(1). It panics
// on labels outside [1, OutDegree(w′)].
func (g *Graph) Decode(label, wPrime uint32) uint32 {
	deg := g.OutDegree(wPrime)
	if label == 0 || int(label) > deg {
		panic(fmt.Sprintf("etgraph: label %d invalid for context %d (out-degree %d)",
			label, wPrime, deg))
	}
	return uint32(g.tos.Get(int(g.starts.Get(int(wPrime))) + int(label) - 1))
}

// OutDegree returns |Nout(w′)|.
func (g *Graph) OutDegree(wPrime uint32) int {
	return int(g.starts.Get(int(wPrime)+1) - g.starts.Get(int(wPrime)))
}

// Edges returns the (To, Z) pairs of w′ in label order.
func (g *Graph) Edges(wPrime uint32) []Edge {
	lo, hi := int(g.starts.Get(int(wPrime))), int(g.starts.Get(int(wPrime)+1))
	es := make([]Edge, hi-lo)
	for i := lo; i < hi; i++ {
		es[i-lo] = Edge{To: uint32(g.tos.Get(i)), Z: bitvec.UnZigZag(g.zs.Get(i))}
	}
	return es
}

// Z returns the correction term Z_{w′w} for the edge with the given
// label out of w′.
func (g *Graph) Z(wPrime, label uint32) int64 {
	return bitvec.UnZigZag(g.zs.Get(int(g.starts.Get(int(wPrime))) + int(label) - 1))
}

// SizeBits returns the packed size of the adjacency structure. Bigram
// counts are construction-only and never stored, matching the paper's
// "CiNCT (with ET-graph)" accounting.
func (g *Graph) SizeBits() int {
	return g.starts.SizeBits() + g.tos.SizeBits() + g.zs.SizeBits()
}
