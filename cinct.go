// Package cinct is a compressed self-index for network-constrained
// trajectories (NCTs), reproducing "CiNCT: Compression and Retrieval
// for Massive Vehicular Trajectories via Relative Movement Labeling"
// (Koide, Tadokoro, Xiao, Ishikawa — ICDE 2018).
//
// An Index stores a corpus of trajectories — each a sequence of road
// edge IDs — in entropy-compressed form while answering, without
// decompressing the corpus:
//
//   - Search: how many times, where, and in which trajectories does a
//     given path occur — optionally within a time interval?
//   - Trajectory: reconstruct any stored trajectory;
//   - SubPath: decompress an arbitrary slice of a stored trajectory.
//
// The compression exploits the sparsity of road networks: a vehicle on
// edge w can move to only a handful of next edges, so re-labeling each
// BWT symbol by the rank of its transition (relative movement labeling)
// yields a tiny-alphabet, low-entropy sequence whose Huffman-shaped
// wavelet tree is both smaller and faster than any general-purpose
// FM-index over raw edge IDs.
//
// Basic usage — every retrieval is one Query descriptor executed by
// Search, which yields hits lazily in canonical order, honors context
// cancellation, and resumes from opaque cursors:
//
//	ix, err := cinct.Build(trajs, nil)
//	n := ix.Count([]uint32{e1, e2, e3}) // occurrences of e1→e2→e3
//	res, _ := ix.Search(ctx, cinct.Query{Path: []uint32{e1, e2, e3}, Limit: 10})
//	for hit, err := range res.All() {
//		full, _ := ix.Trajectory(hit.Trajectory)
//	}
//	token := res.Cursor() // resume the exact suffix in a later Search
//
// # Sharding
//
// An Index is a list of shards over contiguous trajectory-ID ranges,
// each a complete CiNCT index (Options.Shards; the default is one).
// Trajectories are split into ranges balanced by edge count, the
// shards are built concurrently. A query prices every shard with one
// backward search, then locates shards in ID order — in parallel within
// a wave — only until its page is covered, with results merged under
// global trajectory IDs. Query answers do not depend on the shard
// count; build time on a multi-core machine approaches 1/K of the
// one-shard build. A temporal index is the same thing with a timestamp
// store per shard. Save writes the one v3 container that OpenMapped
// serves in place and Load reads onto the heap; both return what the
// file holds, timestamps included. Files older builds wrote in the
// pre-v3 formats are refused with ErrLegacyFormat until `cinct
// convert` rewrites them.
package cinct

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cinct/internal/core"
	"cinct/internal/etgraph"
	"cinct/internal/mmapfile"
	"cinct/internal/tempo"
	"cinct/internal/trajstr"
	"cinct/internal/wavelet"
)

// Options tunes index construction. The zero value is NOT valid; use
// DefaultOptions or pass nil to Build.
type Options struct {
	// Block is the RRR block size b ∈ {15, 31, 63} (§III-C2) of the
	// wavelet-tree nodes kept RRR: a node keeps RRR only where it is at
	// least 1/8 smaller than a plain vector, and is plain otherwise.
	// Larger compresses better and searches slightly slower; the paper
	// shows CiNCT is nearly insensitive to it. 0 means 63.
	Block int
	// Uncompressed stores every node as a plain bit vector (mainly for
	// ablation).
	Uncompressed bool
	// RandomLabeling uses randomly shuffled RML labels instead of the
	// optimal bigram-sorted strategy (the Fig. 14 ablation).
	RandomLabeling bool
	// Seed drives RandomLabeling.
	Seed int64
	// SampleRate is the suffix-array sampling rate behind locate —
	// Occurrences/Trajectories queries, Trajectory and SubPath. Every
	// rate-th text position keeps its suffix-array row and value, so a
	// located occurrence walks about (rate−1)/2 LF steps on average,
	// and on a shard of n symbols locate costs about
	// 1 + (⌈lg n⌉ + ⌈lg(n/rate)⌉)/rate bits per symbol (the 1 marks the
	// sampled rows). 0 disables locate: the index only counts. Default
	// 40.
	SampleRate int
	// Shards partitions the corpus into this many independently built
	// and queried shards (see the package-level Sharding section). 0
	// means 1; values above the trajectory count are clamped.
	Shards int
}

// DefaultOptions returns the paper's configuration, with locate
// sampling every 40 positions: the densest round rate whose packed
// samples take no more room, on shards up to 2²² symbols, than 32-bit
// samples every 64 positions did — so a limit-bound find walks about 19
// LF steps per occurrence instead of 32 for no added space.
func DefaultOptions() *Options {
	return &Options{Block: 63, SampleRate: 40}
}

func (o *Options) coreOptions() core.Options {
	// Normalize the Block default in one place so the zero value never
	// reaches the spec constructor.
	block := o.Block
	if block == 0 {
		block = 63
	}
	spec := wavelet.RRRSpec(block)
	if o.Uncompressed {
		spec = wavelet.PlainSpec
	}
	strat := etgraph.BigramSorted
	if o.RandomLabeling {
		strat = etgraph.RandomShuffle
	}
	return core.Options{Spec: spec, Strategy: strat, Seed: o.Seed, SASample: o.SampleRate}
}

// Index is a compressed, searchable trajectory corpus: a list of
// shards over contiguous trajectory-ID ranges, each a complete CiNCT
// self-index plus — on a temporal index — the timestamp store of the
// same trajectories. The one-shard index is the paper's; K shards are
// the same thing K times over, queried in ID order and merged under
// global IDs, so answers never depend on the shard count.
//
// An Index is immutable after Build/Load and safe for concurrent use
// by multiple goroutines. Growing or compacting one (AppendSealed,
// CompactRange, Writer) returns a new value sharing the untouched
// shards.
type Index struct {
	shards []*shard
	// bounds[s] is the global ID of shard s's first trajectory;
	// bounds[len(shards)] is the corpus size. Shard s owns global IDs
	// [bounds[s], bounds[s+1]).
	bounds []int
	edges  int // distinct edge IDs across all shards
	hasLoc bool
}

// shard is one contiguous trajectory-ID range of an Index. Its
// trajectory IDs are local: global ID minus the owning bound.
type shard struct {
	corpus *trajstr.Corpus
	core   *core.Index
	// ts holds the range's timestamp columns; nil on a spatial index.
	// Either every shard of an Index carries a store or none does.
	ts *tempo.Store
	// backing pins the memory-mapped v3 container the shard reads from
	// (nil for heap shards). It lives on the shard, not the Index, so a
	// running query — which holds shards, not the Index — keeps the
	// mapping alive, and the mapping is released by the garbage
	// collector once no index still holds one of its shards.
	backing *mmapfile.File
}

// Match is one occurrence of a query path.
type Match struct {
	// Trajectory is the ID (build-order position) of the matching
	// trajectory.
	Trajectory int
	// Offset is the 0-based position within the trajectory (in travel
	// order) where the path starts.
	Offset int
}

// ErrNoLocate is returned by operations that need locate support on an
// index built with SampleRate == 0.
var ErrNoLocate = errors.New("cinct: index built without locate support (SampleRate = 0)")

// Build indexes a corpus. Each trajectory is a non-empty sequence of
// road edge IDs in travel order; IDs need not be dense. opts may be
// nil for defaults.
func Build(trajs [][]uint32, opts *Options) (*Index, error) {
	return build(trajs, nil, opts)
}

// build is the one constructor behind Build and BuildTemporal: times
// is nil for a spatial index, otherwise row-aligned with trajs (the
// caller has checked the shapes).
func build(trajs [][]uint32, times [][]int64, opts *Options) (*Index, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if len(trajs) == 0 {
		return nil, trajstr.ErrEmptyCorpus
	}
	lengths := make([]int, len(trajs))
	for i, tr := range trajs {
		if len(tr) == 0 {
			return nil, fmt.Errorf("%w (index %d)", trajstr.ErrEmptyTrajectory, i)
		}
		lengths[i] = len(tr)
	}
	bounds := trajstr.PartitionBounds(lengths, max(opts.Shards, 1))
	corpora, err := trajstr.PartitionCorpus(trajs, bounds)
	if err != nil {
		return nil, err
	}
	shards := make([]*shard, len(corpora))
	// Bounded worker pool: up to min(K, GOMAXPROCS) shard builds in
	// flight (a build is CPU-bound; more workers than cores only adds
	// peak memory).
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := min(len(corpora), runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				shards[s] = newShard(corpora[s], opts)
				if times != nil {
					shards[s].ts = tempo.New(times[bounds[s]:bounds[s+1]])
				}
			}
		}()
	}
	for s := range corpora {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	return newIndex(shards...)
}

func validateOptions(opts *Options) error {
	switch opts.Block {
	case 0, 15, 31, 63:
	default:
		return fmt.Errorf("cinct: Block must be 15, 31 or 63; got %d", opts.Block)
	}
	if opts.SampleRate < 0 {
		return fmt.Errorf("cinct: SampleRate must be >= 0; got %d", opts.SampleRate)
	}
	if opts.Shards < 0 {
		return fmt.Errorf("cinct: Shards must be >= 0; got %d", opts.Shards)
	}
	return nil
}

// newShard compresses one (already encoded) corpus — the unit of work
// of a build, a seal and a compaction alike.
func newShard(corpus *trajstr.Corpus, opts *Options) *shard {
	co := opts.coreOptions()
	sh := &shard{corpus: corpus, core: core.Build(corpus.Text, corpus.Sigma, co)}
	// The corpus text is recoverable from the self-index; drop it so
	// the resident footprint is the compressed structures only.
	if co.SASample > 0 {
		sh.corpus.Text = nil
	}
	return sh
}

// Shards returns the number of corpus partitions.
func (ix *Index) Shards() int { return len(ix.shards) }

// Temporal reports whether the index carries timestamps — every shard
// has its store — and therefore answers interval queries.
func (ix *Index) Temporal() bool { return len(ix.shards) > 0 && ix.shards[0].ts != nil }

// NumTrajectories returns the number of indexed trajectories.
func (ix *Index) NumTrajectories() int { return ix.bounds[len(ix.shards)] }

// NumEdges returns the number of distinct road edges in the corpus.
func (ix *Index) NumEdges() int { return ix.edges }

// Len returns the total symbol count |T| of the underlying trajectory
// strings (edges + separators). Each shard carries its own '#'
// terminator, so a K-shard index exceeds the one-shard index of the
// same corpus by K-1.
func (ix *Index) Len() int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.core.Len()
	}
	return n
}

// shardOf resolves a global trajectory ID to its owning shard and the
// shard-local ID; ok is false when id is out of range.
func (ix *Index) shardOf(id int) (sh *shard, local int, ok bool) {
	if id < 0 || id >= ix.NumTrajectories() {
		return nil, 0, false
	}
	s := sort.Search(len(ix.shards), func(i int) bool { return ix.bounds[i+1] > id })
	return ix.shards[s], id - ix.bounds[s], true
}

// Count returns the number of occurrences of the path (edge IDs in
// travel order) across the corpus. A trajectory that traverses the
// path twice contributes two. An empty path returns 0.
//
// Count is shorthand for Search with Kind CountOnly over a background
// context; use Search for cancellation or an Interval.
func (ix *Index) Count(path []uint32) int {
	r, err := ix.Search(context.Background(), Query{Path: path, Kind: CountOnly})
	if err != nil {
		// A CountOnly query over a background context fails only when
		// a corrupt mapped index panics under the backward search.
		return 0
	}
	n, _ := r.Count()
	return n
}

// suffixRange is the paper's O(|path|) backward search over one shard:
// the BWT rows [sp, ep) whose suffixes start with the reversed path, so
// ep−sp is the shard's exact occurrence count. The range is empty when
// the path does not occur.
func (sh *shard) suffixRange(path []uint32) (sp, ep int64) {
	pat, ok := sh.corpus.ReversedPattern(path)
	if !ok {
		return 0, 0
	}
	sp, ep, _ = sh.core.SuffixRange(pat)
	return sp, ep
}

// locate enumerates the occurrences of an m-edge path whose planned
// suffix range is [sp, ep), calling visit(local trajectory,
// travel-order offset) in suffix-range (i.e. unspecified) order and
// checking ctx periodically so a cancelled query stops scanning. It is
// the one locate loop behind every Search kind, so the offset
// arithmetic cannot drift between the spatial and temporal answers.
// LF-walk work accumulates into st. Requires locate support.
func (sh *shard) locate(ctx context.Context, sp, ep int64, m int, st *QueryStats, visit func(doc, offset int)) error {
	for j := sp; j < ep; j++ {
		if (j-sp)&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		pos, lf := sh.core.LocateSteps(j)
		st.LFSteps += lf
		// The corpus text was dropped at build; the document tables
		// alone map a text position to (trajectory, offset).
		doc, endOff, inDoc := sh.corpus.DocAtByTables(int(pos))
		if !inDoc {
			continue
		}
		// pos holds the path's last edge; the match starts m-1 earlier
		// in travel order.
		visit(doc, endOff-(m-1))
	}
	return nil
}

// sortMatches orders matches by matchLess — the canonical order every
// query path promises, and the one that lets per-shard results merge
// by concatenation (shards hold contiguous global ID ranges).
func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool { return matchLess(ms[i], ms[j]) })
}

// errTrajectoryRange is the one out-of-range-ID error of Index and
// Writer.
func errTrajectoryRange(id, n int) error {
	return fmt.Errorf("cinct: trajectory %d out of range [0,%d)", id, n)
}

// Trajectory reconstructs trajectory id (0 <= id < NumTrajectories) in
// travel order from the compressed index alone; an out-of-range id is
// an error. Requires locate support.
func (ix *Index) Trajectory(id int) ([]uint32, error) {
	return ix.SubPath(id, 0, ix.TrajectoryLen(id))
}

// TrajectoryLen returns the length (edge count) of trajectory id, or
// -1 when id is out of range.
func (ix *Index) TrajectoryLen(id int) int {
	sh, local, ok := ix.shardOf(id)
	if !ok {
		return -1
	}
	return sh.corpus.TrajectoryLen(local)
}

// SubPath extracts edges [from, to) of trajectory id in travel order —
// the paper's sub-path extraction query (§IV-C) lifted to trajectory
// coordinates. An out-of-range id or slice is an error. Requires
// locate support.
func (ix *Index) SubPath(id, from, to int) ([]uint32, error) {
	sh, local, ok := ix.shardOf(id)
	if !ok {
		return nil, errTrajectoryRange(id, ix.NumTrajectories())
	}
	return sh.subPath(local, from, to)
}

func (sh *shard) subPath(local, from, to int) ([]uint32, error) {
	if sh.core.SampleRate() == 0 {
		return nil, ErrNoLocate
	}
	ln := sh.corpus.TrajectoryLen(local)
	if from < 0 || to > ln || from > to {
		return nil, fmt.Errorf("cinct: SubPath[%d,%d) out of range [0,%d)", from, to, ln)
	}
	if from == to {
		return nil, nil
	}
	// The trajectory occupies text [start, start+ln) storing the
	// *reversed* edges; travel offsets [from, to) map to text
	// [start+ln-to, start+ln-from).
	start := int64(sh.corpus.DocStart(local))
	a := start + int64(ln-to)
	b := start + int64(ln-from)
	var out []uint32
	if err := containCorrupt(func() error {
		syms := sh.core.ExtractRange(a, b)
		out = make([]uint32, len(syms))
		for i, s := range syms {
			out[len(syms)-1-i] = sh.corpus.EdgeFor(s)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// Stats summarizes the index. The JSON tags define the wire form the
// cinctd daemon serves under /v1/indexes.
type Stats struct {
	// Shards is the number of corpus partitions.
	Shards int `json:"shards"`
	// Trajectories and Edges describe the corpus.
	Trajectories int `json:"trajectories"`
	Edges        int `json:"edges"`
	// TextLen is |T|.
	TextLen int `json:"textLen"`
	// MaxLabel is the labeled-BWT alphabet size (max ET-graph
	// out-degree).
	MaxLabel int `json:"maxLabel"`
	// ETGraphEdges is |E_T|.
	ETGraphEdges int `json:"etGraphEdges"`
	// AvgOutDegree is d̄ of the ET-graph (Table III).
	AvgOutDegree float64 `json:"avgOutDegree"`
	// LabelEntropy is H0 of the RML-labeled BWT in bits per symbol —
	// the paper's headline statistic (Table III's H0(φ) column).
	LabelEntropy float64 `json:"labelEntropy"`
	// SizeBits breaks down the footprint. LocateBits is the sampled-row
	// marks plus the packed SA and ISA samples, exactly the words they
	// occupy in the file Save writes.
	WaveletBits int `json:"waveletBits"`
	GraphBits   int `json:"graphBits"`
	CArrayBits  int `json:"cArrayBits"`
	LocateBits  int `json:"locateBits"`
	// BitsPerSymbol is the paper's headline size metric (with
	// ET-graph, without locate structures).
	BitsPerSymbol float64 `json:"bitsPerSymbol"`
}

func (sh *shard) stats() Stats {
	s := sh.core.Sizes()
	g := sh.core.Graph()
	return Stats{
		Shards:        1,
		Trajectories:  sh.corpus.NumTrajectories(),
		Edges:         sh.corpus.NumEdges(),
		TextLen:       sh.core.Len(),
		MaxLabel:      sh.core.MaxLabel(),
		ETGraphEdges:  g.NumEdges(),
		AvgOutDegree:  g.AvgOutDegree(),
		LabelEntropy:  sh.core.LabelEntropy(),
		WaveletBits:   s.LabeledWT,
		GraphBits:     s.ETGraph,
		CArrayBits:    s.CArray,
		LocateBits:    s.Locate,
		BitsPerSymbol: sh.core.BitsPerSymbol(true),
	}
}

// Stats reports size and shape statistics, aggregated over the shards:
// counts and size fields sum, MaxLabel is the maximum, LabelEntropy is
// weighted by shard text length, and AvgOutDegree is recomputed from
// the summed ET-graph edge and node counts.
func (ix *Index) Stats() Stats {
	if len(ix.shards) == 1 {
		// The paper's single-index figures exactly, not re-derived
		// through the aggregate's floating-point averages.
		return ix.shards[0].stats()
	}
	agg := Stats{Shards: len(ix.shards), Edges: ix.edges}
	var nodes, entropyBits, indexBits float64
	for _, sh := range ix.shards {
		s := sh.stats()
		agg.Trajectories += s.Trajectories
		agg.TextLen += s.TextLen
		agg.ETGraphEdges += s.ETGraphEdges
		agg.WaveletBits += s.WaveletBits
		agg.GraphBits += s.GraphBits
		agg.CArrayBits += s.CArrayBits
		agg.LocateBits += s.LocateBits
		if s.MaxLabel > agg.MaxLabel {
			agg.MaxLabel = s.MaxLabel
		}
		if s.AvgOutDegree > 0 {
			nodes += float64(s.ETGraphEdges) / s.AvgOutDegree
		}
		entropyBits += s.LabelEntropy * float64(s.TextLen)
		// BitsPerSymbol excludes locate structures (paper accounting).
		indexBits += float64(s.WaveletBits + s.GraphBits + s.CArrayBits)
	}
	if nodes > 0 {
		agg.AvgOutDegree = float64(agg.ETGraphEdges) / nodes
	}
	if agg.TextLen > 0 {
		agg.LabelEntropy = entropyBits / float64(agg.TextLen)
		agg.BitsPerSymbol = indexBits / float64(agg.TextLen)
	}
	return agg
}
