// Package core implements the CiNCT index itself (§III–IV of the
// paper): the BWT of the trajectory string is re-labeled by the RML
// function φ of its ET-graph, the labeled BWT φ(Tbwt) is stored in a
// Huffman-shaped wavelet tree over RRR bit vectors, and all queries run
// through PseudoRank (Theorem 2), which simulates rank on the original
// BWT using only the labeled one plus per-edge correction terms.
//
// The separator's context is escaped. Its block [C[$], C[$+1]) holds one
// row per trajectory, and their symbols are the trajectories' first
// edges, so RML would give the $ vertex an out-degree near σ and the
// tree thousands of tiny nodes. Instead every row of that block carries
// label 1 in φ(Tbwt), the $ vertex keeps no out-edges, and the rows'
// real symbols sit in a wavelet matrix in row order, which answers
// access and rank for LF and backward search from a $ context. Every
// other context runs PseudoRank as in the paper.
package core

import (
	"fmt"
	"time"

	"cinct/internal/bitvec"
	"cinct/internal/entropy"
	"cinct/internal/etgraph"
	"cinct/internal/suffix"
	"cinct/internal/trajstr"
	"cinct/internal/wavelet"
)

// sep is the escaped context: the trajectory separator.
const sep = trajstr.SymSep

// Options configures index construction.
type Options struct {
	// Spec selects the bit-vector representation of the wavelet tree.
	// The paper's configuration is RRR with b = 63.
	Spec wavelet.BitvecSpec
	// Strategy selects the RML label assignment (bigram-sorted is the
	// optimal strategy of Theorem 3; random is the Fig. 14 baseline).
	Strategy etgraph.Strategy
	// Seed drives the random labeling strategy.
	Seed int64
	// SASample, if > 0, stores every SASample-th suffix-array value so
	// Locate can report text positions. 0 disables locate support.
	SASample int
}

// DefaultOptions is the paper's configuration: HWT + RRR(63),
// bigram-sorted RML, plus locate sampling every 40 text positions, the
// library default (see cinct.Options.SampleRate).
func DefaultOptions() Options {
	return Options{Spec: wavelet.RRRSpec(63), Strategy: etgraph.BigramSorted, SASample: 40}
}

// BuildStats records the construction-time breakdown reported in
// Fig. 16.
type BuildStats struct {
	BWT     time.Duration // suffix array + BWT
	ETGraph time.Duration // graph build + labeling + correction terms
	WT      time.Duration // wavelet tree build
	Total   time.Duration
}

// Index is a CiNCT index over a symbol sequence (a trajectory string
// or any sequence with a sparse ET-graph).
type Index struct {
	n        int
	sigma    int
	maxLabel int
	opt      Options

	c         *bitvec.PackedInts // C[w] = #symbols < w in T; len sigma+1, lg(n+1) bits each
	graph     *etgraph.Graph
	labeled   *wavelet.HWT // φ(Tbwt), every row of the $ block labeled 1
	h0Labeled float64      // H0(φ(Tbwt)) under RML on every row, the paper's headline statistic
	sepRows   *wavelet.WM  // Tbwt over the $ block [C[$], C[$+1]), in row order
	bwt0      uint32       // Tbwt[0], the one row of the # block before C[$]

	// Locate support (optional). Sampled SA values are multiples of the
	// rate, so samples holds SA/rate.
	sampleRate int
	mark       *bitvec.Plain      // BWT rows whose SA value is sampled
	samples    *bitvec.PackedInts // SA/rate at marked rows, in row order
	isaSamples *bitvec.PackedInts // isaSamples[k] = BWT row of the suffix at text position k*rate

	// Stats describes how long each construction stage took.
	Stats BuildStats
}

// Build constructs a CiNCT index for text, whose symbols lie in
// [0, sigma). The text must end with a unique smallest terminator
// (symbol 0 occurring exactly once, at the end) — the trajectory
// string of Def. 2 by construction.
func Build(text []uint32, sigma int, opt Options) *Index {
	t0 := time.Now()
	sa := suffix.Array(text, sigma)
	bwt := suffix.BWT(text, sa)
	bwtTime := time.Since(t0)
	ix := BuildFromBWT(text, bwt, sa, sigma, opt)
	ix.Stats.BWT = bwtTime
	ix.Stats.Total = time.Since(t0)
	return ix
}

// BuildFromBWT constructs the index from a precomputed BWT (and suffix
// array, which is only required when opt.SASample > 0). It lets the
// benchmark harness share one BWT across all competing indexes.
func BuildFromBWT(text, bwt []uint32, sa []int32, sigma int, opt Options) *Index {
	n := len(text)
	if len(bwt) != n {
		panic(fmt.Sprintf("core: |bwt|=%d but |text|=%d", len(bwt), n))
	}
	// The whole construction rests on the terminator precondition
	// (suffix order ≡ rotation order); check it explicitly rather than
	// failing obscurely later.
	if n > 0 {
		if text[n-1] != 0 {
			panic("core: text must end with terminator symbol 0")
		}
		for _, w := range text[:n-1] {
			if w == 0 {
				panic("core: terminator symbol 0 must occur only at the end")
			}
			if int(w) >= sigma {
				panic(fmt.Sprintf("core: symbol %d outside alphabet [0,%d)", w, sigma))
			}
		}
	}
	if opt.Spec.Kind == wavelet.RRRBits && opt.Spec.Block == 0 {
		opt.Spec.Block = 63
	}
	ix := &Index{n: n, sigma: sigma, opt: opt}

	tGraph := time.Now()
	// C array from symbol counts; kept as a plain slice through
	// construction, packed for residency afterwards.
	rawC := make([]uint64, sigma+1)
	for _, w := range text {
		rawC[w+1]++
	}
	for w := 1; w <= sigma; w++ {
		rawC[w] += rawC[w-1]
	}
	var labels, sepSyms []uint32
	ix.graph = etgraph.Build(text, sigma, opt.Strategy, opt.Seed, func(out [][]uint32) []int64 {
		labels = labelBWT(bwt, rawC, out)
		ix.h0Labeled = entropy.H0Freqs(labelFreqs(labels, out))
		sepSyms = escapeSep(bwt, labels, rawC, out)
		return corrections(bwt, labels, rawC, out)
	})
	ix.maxLabel = ix.graph.MaxOutDegree()
	ix.c = bitvec.PackInts(rawC)
	if n > 0 {
		ix.bwt0 = bwt[0]
	}
	ix.Stats.ETGraph = time.Since(tGraph)

	tWT := time.Now()
	freqs := make([]uint64, ix.maxLabel+1)
	for _, l := range labels {
		freqs[l]++
	}
	ix.labeled = wavelet.NewHWTFreqs(labels, freqs, opt.Spec)
	// The block's first edges are close to uniform: RRR would not pay.
	ix.sepRows = wavelet.NewWM(sepSyms, sigma, wavelet.PlainSpec)
	ix.Stats.WT = time.Since(tWT)

	if opt.SASample > 0 {
		if sa == nil {
			panic("core: SASample > 0 requires the suffix array")
		}
		ix.buildSamples(sa, opt.SASample)
	}
	return ix
}

// labelBWT converts Tbwt into φ(Tbwt) (§III-C1): position j in the
// context block [C[w′], C[w′+1]) gets the label φ(Tbwt[j] | w′), the
// 1-based position of Tbwt[j] in out[w′].
func labelBWT(bwt []uint32, rawC []uint64, out [][]uint32) []uint32 {
	labels := make([]uint32, len(bwt))
	scratch := make([]uint32, len(out)) // symbol -> label within current context
	for wp, es := range out {
		lo, hi := rawC[wp], rawC[wp+1]
		if lo == hi {
			continue
		}
		for i, to := range es {
			scratch[to] = uint32(i) + 1
		}
		for j := lo; j < hi; j++ {
			l := scratch[bwt[j]]
			if l == 0 {
				panic(fmt.Sprintf("core: BWT symbol %d at row %d not in Nout(%d)", bwt[j], j, wp))
			}
			labels[j] = l
		}
		for _, to := range es {
			scratch[to] = 0
		}
	}
	return labels
}

// labelFreqs counts the labels of φ(Tbwt) over every row, as RML
// assigns them (out's longest list bounds the alphabet).
func labelFreqs(labels []uint32, out [][]uint32) []uint64 {
	maxDeg := 0
	for _, es := range out {
		maxDeg = max(maxDeg, len(es))
	}
	freqs := make([]uint64, maxDeg+1)
	for _, l := range labels {
		freqs[l]++
	}
	return freqs
}

// escapeSep escapes the separator's context once labelBWT has labeled
// it: every row of the block [C[$], C[$+1]) gets label 1, the context
// loses its out-edges, and the rows' BWT symbols, in row order, are
// returned for the wavelet matrix that replaces them.
func escapeSep(bwt, labels []uint32, rawC []uint64, out [][]uint32) []uint32 {
	lo, hi := rawC[sep], rawC[sep+1]
	for j := lo; j < hi; j++ {
		labels[j] = 1
	}
	out[sep] = nil
	return append([]uint32(nil), bwt[lo:hi]...)
}

// corrections computes the correction terms Z_{w′w} (Eq. 7) in one
// sweep, in out's order: at each context boundary j = C[w′], the
// running symbol and label counters are exactly rank_w(Tbwt, C[w′])
// and rank_η(φ(Tbwt), C[w′]). The sweep covers every row, escaped
// ones included, so the terms hold whatever labels those rows carry.
func corrections(bwt, labels []uint32, rawC []uint64, out [][]uint32) []int64 {
	maxDeg := 0
	for _, es := range out {
		maxDeg = max(maxDeg, len(es))
	}
	cntSym := make([]int64, len(out))
	cntLab := make([]int64, maxDeg+1)
	var z []int64
	for wp, es := range out {
		for i, to := range es {
			z = append(z, cntLab[i+1]-cntSym[to])
		}
		for j := rawC[wp]; j < rawC[wp+1]; j++ {
			cntSym[bwt[j]]++
			cntLab[labels[j]]++
		}
	}
	return z
}

// buildSamples marks the rows whose suffix starts at a multiple of
// rate and packs their SA/rate values (in row order) and the inverse
// (row of each sampled position) at the widths their largest values
// need: ⌈lg(n/rate)⌉ and ⌈lg n⌉ bits rather than 32.
func (ix *Index) buildSamples(sa []int32, rate int) {
	ix.sampleRate = rate
	bld := bitvec.NewBuilder(ix.n)
	isa := make([]uint64, (ix.n+rate-1)/rate)
	scaled := make([]uint64, 0, len(isa))
	for j, p := range sa {
		sampled := int(p)%rate == 0
		bld.PushBit(sampled)
		if sampled {
			scaled = append(scaled, uint64(int(p)/rate))
			isa[int(p)/rate] = uint64(j)
		}
	}
	ix.mark = bld.Plain()
	ix.samples = bitvec.PackInts(scaled)
	ix.isaSamples = bitvec.PackInts(isa)
}

// Len returns |T|.
func (ix *Index) Len() int { return ix.n }

// Sigma returns the alphabet size.
func (ix *Index) Sigma() int { return ix.sigma }

// MaxLabel returns the alphabet size of the labeled BWT as served: the
// maximum out-degree of the served ET-graph, whose separator vertex has
// no out-edges.
func (ix *Index) MaxLabel() int { return ix.maxLabel }

// Graph exposes the served ET-graph (read-only use): the paper's
// ET-graph less the separator's out-edges.
func (ix *Index) Graph() *etgraph.Graph { return ix.graph }

// Labeled exposes the wavelet tree of φ(Tbwt), the $ block escaped to
// label 1 (used by the analysis tests).
func (ix *Index) Labeled() *wavelet.HWT { return ix.labeled }

// LabelEntropy returns H0(φ(Tbwt)) in bits per symbol — the quantity
// Eq. (10) shows collapses under RML and which drives both the index
// size (§V-B) and the search speed (Theorem 1). It is the paper's
// statistic: RML labels on every row, the $ block included, not the
// escaped labels the tree stores. Computed at build time.
func (ix *Index) LabelEntropy() float64 { return ix.h0Labeled }

// C returns C[w] (the number of symbols in T smaller than w). w may
// equal Sigma().
func (ix *Index) C(w uint32) int64 { return ix.cAt(int(w)) }

// cAt reads the packed C array.
func (ix *Index) cAt(w int) int64 { return int64(ix.c.Get(w)) }

// SampleRate returns the locate sampling rate (0 = no locate support).
func (ix *Index) SampleRate() int { return ix.sampleRate }

// pseudoRank computes rank_w(Tbwt, j) = rank_η(φ(Tbwt), j) − Z_{w′w}
// (Theorem 2). The caller guarantees w ∈ Nout(w′) (label/z already
// resolved) and C[w′] ≤ j ≤ C[w′+1].
func (ix *Index) pseudoRank(j int, label uint32, z int64) int64 {
	return int64(ix.labeled.Rank(label, j)) - z
}

// SuffixRange runs LabeledSearchFM (Algorithm 3) for a pattern given in
// *text order* (i.e. the caller has already reversed a travel-order
// path). It returns the suffix range [sp, ep) of the pattern in Tbwt;
// ok is false when the pattern does not occur. An empty pattern matches
// the whole string.
func (ix *Index) SuffixRange(pat []uint32) (sp, ep int64, ok bool) {
	m := len(pat)
	if m == 0 {
		return 0, int64(ix.n), true
	}
	w := pat[m-1]
	if int(w) >= ix.sigma {
		return 0, 0, false
	}
	sp, ep = ix.cAt(int(w)), ix.cAt(int(w)+1)
	for i := m - 2; i >= 0; i-- {
		if sp >= ep {
			return 0, 0, false
		}
		wPrime := pat[i+1]
		w = pat[i]
		if int(w) >= ix.sigma {
			return 0, 0, false
		}
		if wPrime == sep {
			sp = ix.cAt(int(w)) + ix.sepRank(w, sp)
			ep = ix.cAt(int(w)) + ix.sepRank(w, ep)
			continue
		}
		label, found := ix.graph.Label(w, wPrime)
		if !found {
			// w ∉ Nout(w′): the bigram never occurs (Line 5–6).
			return 0, 0, false
		}
		z := ix.graph.Z(wPrime, label)
		sp = ix.cAt(int(w)) + ix.pseudoRank(int(sp), label, z)
		ep = ix.cAt(int(w)) + ix.pseudoRank(int(ep), label, z)
	}
	if sp >= ep {
		return 0, 0, false
	}
	return sp, ep, true
}

// sepRank is rank_w(Tbwt, j) for C[$] ≤ j ≤ C[$+1], the escaped
// block's replacement for PseudoRank: the one # row before the block,
// then w's occurrences among the block's first j − C[$] rows.
func (ix *Index) sepRank(w uint32, j int64) int64 {
	r := int64(ix.sepRows.Rank(w, int(j-ix.cAt(int(sep)))))
	if w == ix.bwt0 {
		r++
	}
	return r
}

// Count returns the number of occurrences of the (text-order) pattern.
func (ix *Index) Count(pat []uint32) int64 {
	sp, ep, ok := ix.SuffixRange(pat)
	if !ok {
		return 0
	}
	return ep - sp
}

// contextOf returns the symbol w′ with C[w′] ≤ j < C[w′+1]: the first
// symbol of the j-th sorted suffix (Line 1 of Algorithm 4).
func (ix *Index) contextOf(j int64) uint32 {
	// Find the smallest w with C[w+1] > j. Manual binary search: this
	// runs on every LF step and sort.Search's func value would be the
	// hot path's only allocation.
	lo, hi := 0, ix.sigma
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.cAt(mid+1) > j {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return uint32(lo)
}

// LF performs one LF-mapping step from BWT row j using only the
// labeled BWT: it returns the row of the text position SA[j]−1 (mod n)
// and the BWT symbol Tbwt[j] it consumed.
func (ix *Index) LF(j int64) (next int64, sym uint32) {
	return ix.lfFrom(j, ix.contextOf(j))
}

// lfFrom is LF with the context symbol w′ of row j already known.
// Every LF chain exploits Algorithm 4's Line 5 (w′ ← w): the decoded
// symbol of this step is the context of the next, so the binary search
// over C happens once per chain, not once per step. The combined
// AccessRank gives label and rank_η in one wavelet-tree walk; a row of
// the escaped $ block reads its symbol and rank from the matrix instead.
func (ix *Index) lfFrom(j int64, wPrime uint32) (next int64, sym uint32) {
	if wPrime == sep {
		return ix.lfSep(j)
	}
	label, lrank := ix.labeled.AccessRank(int(j))
	sym = ix.graph.Decode(label, wPrime)
	z := ix.graph.Z(wPrime, label)
	next = ix.cAt(int(sym)) + int64(lrank) - z
	return next, sym
}

// lfSep is LF from row j of the $ block: C[w] + rank_w(Tbwt, j) with
// w = Tbwt[j], both read from the matrix as in sepRank.
func (ix *Index) lfSep(j int64) (next int64, sym uint32) {
	sym, r := ix.sepRows.AccessRank(int(j - ix.cAt(int(sep))))
	if int(sym) >= ix.sigma {
		panic("core: escaped row symbol outside the alphabet; corrupt index")
	}
	next = ix.cAt(int(sym)) + int64(r)
	if sym == ix.bwt0 {
		next++
	}
	return next, sym
}

// Extract implements Algorithm 4: it returns the l symbols of T that
// precede text position SA[j], i.e. T[SA[j]−l, SA[j]) (cyclically).
func (ix *Index) Extract(j int64, l int) []uint32 {
	if j < 0 || j >= int64(ix.n) {
		panic(fmt.Sprintf("core: Extract row %d out of range [0,%d)", j, ix.n))
	}
	out := make([]uint32, l)
	wPrime := ix.contextOf(j) // Line 1: binary search, once
	for k := 1; k <= l; k++ {
		next, sym := ix.lfFrom(j, wPrime)
		out[l-k] = sym
		j = next
		wPrime = sym // Line 5: save previous symbol
	}
	return out
}

// Locate returns SA[j]: the text position of the suffix at BWT row j.
// It requires SASample > 0 at build time, walking LF until a sampled
// row (at most SASample steps).
func (ix *Index) Locate(j int64) int64 {
	pos, _ := ix.LocateSteps(j)
	return pos
}

// LocateSteps is Locate plus the number of LF-mapping steps the walk
// performed before hitting a sampled row — the per-occurrence unit of
// locate cost that the serving layers account against queries.
func (ix *Index) LocateSteps(j int64) (pos, lfSteps int64) {
	if ix.sampleRate == 0 {
		panic("core: index built without locate support (SASample = 0)")
	}
	steps := int64(0)
	wPrime := uint32(0)
	haveCtx := false
	for !ix.mark.Get(int(j)) {
		if steps > int64(ix.n) {
			// A healthy index marks a row at least every SASample LF
			// steps; exceeding n steps means the mark bits or the LF
			// permutation are corrupt (possible only on a mapped view,
			// whose O(n) invariants are not validated at open). Panic
			// rather than spin — the search layer converts this to a
			// typed corruption error.
			panic("core: Locate walked past n LF steps; corrupt index")
		}
		if !haveCtx {
			wPrime = ix.contextOf(j)
			haveCtx = true
		}
		j, wPrime = ix.lfFrom(j, wPrime)
		steps++
	}
	// Walking back from a position reaches the sampled multiple of the
	// rate at or below it without wrapping, so a healthy p is below n.
	p := int64(ix.samples.Get(ix.mark.Rank1(int(j))))*int64(ix.sampleRate) + steps
	if p >= int64(ix.n) {
		panic("core: Locate sample lies past n; corrupt index")
	}
	return p, steps
}

// RowOf returns the BWT row of the suffix starting at text position
// pos (the inverse suffix array, j = ISA[pos]). Requires locate
// support; it walks at most SASample LF steps from the next sampled
// position.
func (ix *Index) RowOf(pos int64) int64 {
	if ix.sampleRate == 0 {
		panic("core: index built without locate support (SASample = 0)")
	}
	if pos < 0 || pos >= int64(ix.n) {
		panic(fmt.Sprintf("core: RowOf(%d) out of range [0,%d)", pos, ix.n))
	}
	rate := int64(ix.sampleRate)
	next := (pos + rate - 1) / rate * rate
	var j int64
	if next >= int64(ix.n) {
		// SA[0] = n-1 (the terminator suffix) serves as the anchor.
		next = int64(ix.n) - 1
		j = 0
	} else if j = int64(ix.isaSamples.Get(int(next / rate))); j >= int64(ix.n) {
		panic("core: RowOf sample lies past n; corrupt index")
	}
	// LF maps the row of the suffix at q to the row of the suffix at
	// q-1, so walk next-pos steps, carrying the context across steps.
	if next > pos {
		wPrime := ix.contextOf(j)
		for ; next > pos; next-- {
			j, wPrime = ix.lfFrom(j, wPrime)
		}
	}
	return j
}

// ExtractRange returns T[a, b) using only the compressed index: the
// row of the suffix at b is found via RowOf and Algorithm 4 walks
// backward b−a symbols. Requires locate support. b may equal Len().
func (ix *Index) ExtractRange(a, b int64) []uint32 {
	if a < 0 || b > int64(ix.n) || a > b {
		panic(fmt.Sprintf("core: ExtractRange(%d,%d) invalid for n=%d", a, b, ix.n))
	}
	if a == b {
		return nil
	}
	if b == int64(ix.n) {
		// No suffix starts at n; the terminator's suffix T[n−1] sorts
		// first, so walk back from row 0 and append the terminator.
		return append(ix.Extract(0, int(b-a-1)), 0)
	}
	return ix.Extract(ix.RowOf(b), int(b-a))
}

// Sizes breaks down the index footprint in bits (the accounting used
// by the size experiments; the paper's "CiNCT" curve includes the
// ET-graph, the "w/o ET-graph" curve does not).
type Sizes struct {
	LabeledWT int // wavelet tree of φ(Tbwt), incl. RRR structures, and the $-row matrix
	ETGraph   int // adjacency lists with labels and Z terms
	CArray    int // the C array (all FM variants carry this)
	Locate    int // mark bit vector + SA and ISA samples, in the words of their flat form
}

// Total returns the full footprint in bits.
func (s Sizes) Total() int { return s.LabeledWT + s.ETGraph + s.CArray + s.Locate }

// Sizes reports the index footprint.
func (ix *Index) Sizes() Sizes {
	s := Sizes{
		LabeledWT: ix.labeled.SizeBits() + ix.sepRows.SizeBits(),
		ETGraph:   ix.graph.SizeBits(),
		CArray:    ix.c.SizeBits(),
	}
	if ix.sampleRate > 0 {
		s.Locate = 64 * (ix.mark.FlatWords() + ix.samples.FlatWords() + ix.isaSamples.FlatWords())
	}
	return s
}

// BitsPerSymbol returns the index size in bits per text symbol.
// includeGraph toggles the ET-graph term (Fig. 10's two CiNCT curves);
// locate structures are excluded to match the paper's accounting, which
// benchmarks count/extract indexes.
func (ix *Index) BitsPerSymbol(includeGraph bool) float64 {
	s := ix.Sizes()
	bits := s.LabeledWT + s.CArray
	if includeGraph {
		bits += s.ETGraph
	}
	return float64(bits) / float64(ix.n)
}
