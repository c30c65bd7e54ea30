// Package core implements the CiNCT index itself (§III–IV of the
// paper): the BWT of the trajectory string is re-labeled by the RML
// function φ of its ET-graph, the labeled BWT φ(Tbwt) is stored in a
// Huffman-shaped wavelet tree over RRR bit vectors, and all queries run
// through PseudoRank (Theorem 2), which simulates rank on the original
// BWT using only the labeled one plus per-edge correction terms.
package core

import (
	"fmt"
	"time"

	"cinct/internal/bitvec"
	"cinct/internal/entropy"
	"cinct/internal/etgraph"
	"cinct/internal/suffix"
	"cinct/internal/wavelet"
)

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
	labeled   *wavelet.HWT // φ(Tbwt)
	h0Labeled float64      // H0(φ(Tbwt)), the paper's headline statistic

	// Locate support (optional). Sampled SA values are multiples of the
	// rate, so samples holds SA/rate and saScale is the rate — except on
	// a view of a version-3 file, whose samples are the SA values
	// themselves at width 32 (saScale 1).
	sampleRate int
	mark       *bitvec.Plain      // BWT rows whose SA value is sampled
	samples    *bitvec.PackedInts // SA/saScale at marked rows, in row order
	saScale    int64
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
	ix.graph = etgraph.Build(text, sigma, opt.Strategy, opt.Seed)
	ix.maxLabel = ix.graph.MaxOutDegree()

	// C array from symbol counts; kept as a plain slice through
	// construction, packed for residency afterwards.
	rawC := make([]uint64, sigma+1)
	for _, w := range text {
		rawC[w+1]++
	}
	for w := 1; w <= sigma; w++ {
		rawC[w] += rawC[w-1]
	}

	labels := ix.labelBWT(bwt, rawC)
	ix.computeCorrections(bwt, labels, rawC)
	ix.graph.Compact()
	ix.c = bitvec.PackInts(rawC)
	ix.Stats.ETGraph = time.Since(tGraph)

	tWT := time.Now()
	freqs := make([]uint64, ix.maxLabel+1)
	for _, l := range labels {
		freqs[l]++
	}
	ix.labeled = wavelet.NewHWTFreqs(labels, freqs, opt.Spec)
	ix.h0Labeled = entropy.H0Freqs(freqs)
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
// context block [C[w′], C[w′+1]) gets the label φ(Tbwt[j] | w′).
func (ix *Index) labelBWT(bwt []uint32, rawC []uint64) []uint32 {
	labels := make([]uint32, ix.n)
	scratch := make([]uint32, ix.sigma) // symbol -> label within current context
	for wp := 0; wp < ix.sigma; wp++ {
		lo, hi := rawC[wp], rawC[wp+1]
		if lo == hi {
			continue
		}
		es := ix.graph.OutEdges(uint32(wp))
		for i, e := range es {
			scratch[e.To] = uint32(i) + 1
		}
		for j := lo; j < hi; j++ {
			l := scratch[bwt[j]]
			if l == 0 {
				panic(fmt.Sprintf("core: BWT symbol %d at row %d not in Nout(%d)", bwt[j], j, wp))
			}
			labels[j] = l
		}
		for _, e := range es {
			scratch[e.To] = 0
		}
	}
	return labels
}

// computeCorrections fills the correction terms Z_{w′w} (Eq. 7) in one
// sweep: at each context boundary j = C[w′], the running symbol and
// label counters are exactly rank_w(Tbwt, C[w′]) and
// rank_η(φ(Tbwt), C[w′]).
func (ix *Index) computeCorrections(bwt, labels []uint32, rawC []uint64) {
	cntSym := make([]int64, ix.sigma)
	cntLab := make([]int64, ix.maxLabel+1)
	for wp := 0; wp < ix.sigma; wp++ {
		es := ix.graph.OutEdges(uint32(wp))
		for i, e := range es {
			ix.graph.SetZ(uint32(wp), uint32(i)+1, cntLab[i+1]-cntSym[e.To])
		}
		for j := rawC[wp]; j < rawC[wp+1]; j++ {
			cntSym[bwt[j]]++
			cntLab[labels[j]]++
		}
	}
}

// buildSamples marks the rows whose suffix starts at a multiple of
// rate and packs their SA/rate values (in row order) and the inverse
// (row of each sampled position) at the widths their largest values
// need: ⌈lg(n/rate)⌉ and ⌈lg n⌉ bits rather than 32.
func (ix *Index) buildSamples(sa []int32, rate int) {
	ix.sampleRate = rate
	ix.saScale = int64(rate)
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

// MaxLabel returns the alphabet size of the labeled BWT (= the maximum
// out-degree of the ET-graph).
func (ix *Index) MaxLabel() int { return ix.maxLabel }

// Graph exposes the ET-graph (read-only use).
func (ix *Index) Graph() *etgraph.Graph { return ix.graph }

// Labeled exposes the wavelet tree of φ(Tbwt) (used by the analysis
// tests).
func (ix *Index) Labeled() *wavelet.HWT { return ix.labeled }

// LabelEntropy returns H0(φ(Tbwt)) in bits per symbol — the quantity
// Eq. (10) shows collapses under RML and which drives both the index
// size (§V-B) and the search speed (Theorem 1). Computed at build time.
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
// AccessRank gives label and rank_η in one wavelet-tree walk.
func (ix *Index) lfFrom(j int64, wPrime uint32) (next int64, sym uint32) {
	label, lrank := ix.labeled.AccessRank(int(j))
	sym = ix.graph.Decode(label, wPrime)
	z := ix.graph.Z(wPrime, label)
	next = ix.cAt(int(sym)) + int64(lrank) - z
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
	p := int64(ix.samples.Get(ix.mark.Rank1(int(j))))*ix.saScale + steps
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
	var j int64
	if b == int64(ix.n) {
		// The suffix at position n does not exist; but T[n-1] is the
		// terminator whose row is 0 and extracting from row 0 yields
		// symbols before position n-1, so extract T[a,n-1) then append
		// the terminator... simpler: use the cyclic property — row 0 is
		// the suffix at n-1; Extract from the row of the *rotation*
		// start works because extraction is cyclic. Walk from row of
		// position n-1 one symbol short, then add T[n-1] = 0.
		out := append(ix.Extract(ix.RowOf(int64(ix.n)-1), int(b-a-1)), 0)
		return out
	}
	j = ix.RowOf(b)
	return ix.Extract(j, int(b-a))
}

// Sizes breaks down the index footprint in bits (the accounting used
// by the size experiments; the paper's "CiNCT" curve includes the
// ET-graph, the "w/o ET-graph" curve does not).
type Sizes struct {
	LabeledWT int // wavelet tree of φ(Tbwt), incl. RRR structures
	ETGraph   int // adjacency lists with labels and Z terms
	CArray    int // the C array (all FM variants carry this)
	Locate    int // mark bit vector + SA and ISA samples, in the words of their flat form
}

// Total returns the full footprint in bits.
func (s Sizes) Total() int { return s.LabeledWT + s.ETGraph + s.CArray + s.Locate }

// Sizes reports the index footprint.
func (ix *Index) Sizes() Sizes {
	s := Sizes{
		LabeledWT: ix.labeled.SizeBits(),
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
