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

// Edge is one ET-graph edge (w′ → To) with its bigram count and, once
// the index is built, the PseudoRank correction term Z_{w′,To} (Eq. 7).
type Edge struct {
	To    uint32
	Count int64
	Z     int64
}

// Graph is the ET-graph with an RML labeling: out[w′] is sorted in
// label order, so φ(out[w′][i].To | w′) = i+1 and decoding a label is a
// single slice access.
//
// The graph has two representations. Build produces the *building*
// form (adjacency slices with bigram counts), which the index
// construction mutates (SetZ). Compact converts to a CSR layout of
// packed integer arrays — the resident form whose size the paper's
// experiments account for — after which the graph is immutable.
type Graph struct {
	sigma  int
	out    [][]Edge
	edges  int
	maxDeg int

	// Compact (CSR) representation; non-nil after Compact.
	starts *bitvec.PackedInts // len sigma+1, cumulative out-degrees
	tos    *bitvec.PackedInts // len edges, target symbols in label order
	zs     *bitvec.PackedInts // len edges, zig-zag correction terms
}

// Build scans the trajectory string (including the cyclic wraparound
// bigram, so the BWT row of the full-string rotation is labelable) and
// constructs the labeled ET-graph.
func Build(text []uint32, sigma int, strat Strategy, seed int64) *Graph {
	g := &Graph{sigma: sigma, out: make([][]Edge, sigma)}
	n := len(text)
	if n == 0 {
		return g
	}
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
	for wp := 0; wp < sigma; wp++ {
		m := counts[wp]
		if len(m) == 0 {
			continue
		}
		es := make([]Edge, 0, len(m))
		for w, c := range m {
			es = append(es, Edge{To: w, Count: c})
		}
		sort.Slice(es, func(i, j int) bool {
			if es[i].Count != es[j].Count {
				return es[i].Count > es[j].Count
			}
			return es[i].To < es[j].To
		})
		if strat == RandomShuffle {
			rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		}
		g.out[wp] = es
		g.edges += len(es)
		if len(es) > g.maxDeg {
			g.maxDeg = len(es)
		}
	}
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
	if g.starts != nil {
		// Compact dropped the adjacency slices; count non-empty CSR rows.
		for wp := 0; wp < g.sigma; wp++ {
			if g.starts.Get(wp+1) > g.starts.Get(wp) {
				nz++
			}
		}
	} else {
		for _, es := range g.out {
			if len(es) > 0 {
				nz++
			}
		}
	}
	if nz == 0 {
		return 0
	}
	return float64(g.edges) / float64(nz)
}

// Compact converts the graph to its resident CSR form: cumulative
// out-degrees, target symbols and zig-zag Z terms, each in a packed
// integer array at minimal width. Bigram counts (construction-only)
// are dropped. Idempotent.
func (g *Graph) Compact() {
	if g.starts != nil {
		return
	}
	starts := make([]uint64, g.sigma+1)
	tos := make([]uint64, 0, g.edges)
	zs := make([]uint64, 0, g.edges)
	for wp := 0; wp < g.sigma; wp++ {
		starts[wp] = uint64(len(tos))
		for _, e := range g.out[wp] {
			tos = append(tos, uint64(e.To))
			zs = append(zs, bitvec.ZigZag(e.Z))
		}
	}
	starts[g.sigma] = uint64(len(tos))
	g.starts = bitvec.PackInts(starts)
	g.tos = bitvec.PackInts(tos)
	g.zs = bitvec.PackInts(zs)
	g.out = nil
}

// IsCompact reports whether Compact has run.
func (g *Graph) IsCompact() bool { return g.starts != nil }

// Label returns φ(w|w′), the 1-based label of the transition w′→w, or
// ok=false if (w′, w) is not an ET-graph edge — in which case no
// occurrence of the pattern exists (the paper's Line 5 early exit).
// Runs in O(δ) by linear search, as in §III-C3.
func (g *Graph) Label(w, wPrime uint32) (label uint32, ok bool) {
	if int(wPrime) >= g.sigma {
		return 0, false
	}
	if g.starts != nil {
		lo, hi := int(g.starts.Get(int(wPrime))), int(g.starts.Get(int(wPrime)+1))
		for i := lo; i < hi; i++ {
			if uint32(g.tos.Get(i)) == w {
				return uint32(i-lo) + 1, true
			}
		}
		return 0, false
	}
	for i, e := range g.out[wPrime] {
		if e.To == w {
			return uint32(i) + 1, true
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
	if g.starts != nil {
		return uint32(g.tos.Get(int(g.starts.Get(int(wPrime))) + int(label) - 1))
	}
	return g.out[wPrime][label-1].To
}

// OutDegree returns |Nout(w′)|.
func (g *Graph) OutDegree(wPrime uint32) int {
	if g.starts != nil {
		return int(g.starts.Get(int(wPrime)+1) - g.starts.Get(int(wPrime)))
	}
	return len(g.out[wPrime])
}

// OutEdges exposes the out-edge slice of w′ in label order (building
// form only). The slice is owned by the graph; callers may update Z in
// place (the index builder does) but must not reorder it.
func (g *Graph) OutEdges(wPrime uint32) []Edge {
	if g.starts != nil {
		panic("etgraph: OutEdges on a compacted graph")
	}
	return g.out[wPrime]
}

// Edges reconstructs the (To, Z) pairs of w′ in label order, working
// in either representation.
func (g *Graph) Edges(wPrime uint32) []Edge {
	if g.starts == nil {
		return g.out[wPrime]
	}
	lo, hi := int(g.starts.Get(int(wPrime))), int(g.starts.Get(int(wPrime)+1))
	es := make([]Edge, hi-lo)
	for i := lo; i < hi; i++ {
		es[i-lo] = Edge{To: uint32(g.tos.Get(i)), Z: bitvec.UnZigZag(g.zs.Get(i))}
	}
	return es
}

// SetZ stores the correction term for the edge with the given label
// (building form only).
func (g *Graph) SetZ(wPrime, label uint32, z int64) {
	g.out[wPrime][label-1].Z = z
}

// Z returns the correction term Z_{w′w} for the edge with the given
// label out of w′.
func (g *Graph) Z(wPrime, label uint32) int64 {
	if g.starts != nil {
		return bitvec.UnZigZag(g.zs.Get(int(g.starts.Get(int(wPrime))) + int(label) - 1))
	}
	return g.out[wPrime][label-1].Z
}

// SizeBits returns the storage footprint of the adjacency structure.
// After Compact it is the exact packed size; before, an estimate of
// the same layout. Bigram counts are construction-only and never
// counted, matching the paper's "CiNCT (with ET-graph)" accounting.
func (g *Graph) SizeBits() int {
	if g.starts != nil {
		return g.starts.SizeBits() + g.tos.SizeBits() + g.zs.SizeBits()
	}
	// Estimate with the widths Compact would choose.
	widthOf := func(maxV uint64) int {
		w := 0
		for v := maxV; v > 0; v >>= 1 {
			w++
		}
		if w == 0 {
			w = 1
		}
		return w
	}
	var maxTo, maxZ uint64
	for wp := range g.out {
		for _, e := range g.out[wp] {
			if uint64(e.To) > maxTo {
				maxTo = uint64(e.To)
			}
			if z := bitvec.ZigZag(e.Z); z > maxZ {
				maxZ = z
			}
		}
	}
	return (g.sigma+1)*widthOf(uint64(g.edges)) +
		g.edges*(widthOf(maxTo)+widthOf(maxZ)) + 3*64
}
