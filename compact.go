package cinct

import (
	"errors"
	"fmt"

	"cinct/internal/tempo"
	"cinct/internal/trajstr"
)

// errCompactRaced reports a compaction whose victim shards were
// replaced between snapshot and swap. It cannot happen while
// compactions are serialized through Writer.Compact (seals only append
// shards), so surfacing it loudly beats silently dropping data.
var errCompactRaced = errors.New("cinct: compaction raced a shard-set change")

// CompactionPolicy tunes tiered compaction: when Writer.Compact (or
// the serving engine's background compactor) decides a run of sealed
// shards should be merged back into one CiNCT-compressed shard.
//
// Shards form tiers by size: each seal emits one roughly
// threshold-sized L0 shard, MinShards of those merge into one L1
// shard, MinShards L1 shards merge into one L2 shard, and so on —
// the classic tiered-LSM shape that bounds live shard count at
// O(MinShards · log(rows)) while every trajectory is rewritten only
// O(log(rows)) times. The zero value selects the defaults.
type CompactionPolicy struct {
	// MinShards is the tier fan-out: a contiguous run of at least this
	// many similar-sized shards is merged into one. 0 means 4; values
	// below 2 are treated as 2.
	MinShards int
	// MaxShards caps how many shards one compaction round rewrites,
	// bounding the memory and CPU of a single merge. 0 means 16.
	MaxShards int
	// TierRatio is the size coherence bound: shards belong to the same
	// tier while the largest is at most TierRatio times the smallest,
	// and a shard dwarfed by more than TierRatio by its newer neighbor
	// is absorbed into it. 0 means 8.
	TierRatio int
}

// maxTierRatio bounds TierRatio so size×ratio arithmetic cannot
// overflow (shard sizes are text lengths, well under 2^40).
const maxTierRatio = 1 << 20

// FullCompaction is the policy that merges every sealed shard into a
// single one in one round — the best-compression end state for an
// index that has stopped ingesting (one shared wavelet/ET-graph model
// instead of N), used by `cinct compact` and the engine's full mode.
var FullCompaction = CompactionPolicy{MinShards: 2, MaxShards: 1 << 20, TierRatio: maxTierRatio}

func (p CompactionPolicy) withDefaults() CompactionPolicy {
	if p.MinShards == 0 {
		p.MinShards = 4
	}
	if p.MinShards < 2 {
		p.MinShards = 2
	}
	if p.MaxShards <= 0 {
		p.MaxShards = 16
	}
	if p.MaxShards < p.MinShards {
		p.MaxShards = p.MinShards
	}
	if p.TierRatio <= 0 {
		p.TierRatio = 8
	}
	if p.TierRatio > maxTierRatio {
		p.TierRatio = maxTierRatio
	}
	return p
}

// pickCompaction selects the victim range [lo, hi) over the per-shard
// sizes (oldest first), or an empty range when the shard set is
// already within policy. Two triggers, newest-first because fresh
// seals are where fan-out accumulates:
//
//  1. Tier: the rightmost run of >= MinShards shards whose sizes stay
//     within TierRatio of each other, truncated to its newest
//     MaxShards members.
//  2. Dwarf absorption: the rightmost shard dwarfed (by > TierRatio)
//     by its *newer* neighbor is merged into it. The inverse case — a
//     fresh tiny shard after a big merged one — deliberately does not
//     trigger: absorbing every new seal into the big neighbor would
//     rewrite it per seal (unbounded write amplification), while the
//     tier rule batches those seals and merges them geometrically.
func pickCompaction(sizes []int, p CompactionPolicy) (lo, hi int) {
	p = p.withDefaults()
	n := len(sizes)
	for end := n; end >= p.MinShards; {
		start := end - 1
		mn, mx := sizes[start], sizes[start]
		for start > 0 {
			s := sizes[start-1]
			nm, nx := mn, mx
			if s < nm {
				nm = s
			}
			if s > nx {
				nx = s
			}
			if nm < 1 {
				nm = 1
			}
			if nx > nm*p.TierRatio {
				break
			}
			mn, mx = nm, nx
			start--
		}
		if end-start >= p.MinShards {
			if end-start > p.MaxShards {
				start = end - p.MaxShards
			}
			return start, end
		}
		end = start
	}
	for i := n - 2; i >= 0; i-- {
		lo := sizes[i]
		if lo < 1 {
			lo = 1
		}
		if lo*p.TierRatio < sizes[i+1] {
			return i, i + 2
		}
	}
	return 0, 0
}

// shardSizes returns the per-shard trajectory-string lengths, the size
// measure the compaction policy tiers on.
func (ix *Index) shardSizes() []int {
	sizes := make([]int, len(ix.shards))
	for i, sh := range ix.shards {
		sizes[i] = sh.core.Len()
	}
	return sizes
}

// emptyIndex is the zero-shard index every shard list grows from
// (through spliced, the only constructor of bounds). It is an internal
// starting point — a built or loaded Index always has a shard.
func emptyIndex(hasLoc bool) *Index {
	return &Index{bounds: []int{0}, hasLoc: hasLoc}
}

// newIndex assembles freshly built or loaded shards, in ID order.
func newIndex(shards ...*shard) (*Index, error) {
	return emptyIndex(shards[0].core.SampleRate() > 0).spliced(0, 0, shards...)
}

// spliced is the one audited copy-on-write shard-set primitive: it
// returns a new Index with shards[lo:hi) replaced by repl (lo == hi ==
// len(shards) appends instead). Every shard set comes from here — a
// build or load assembling its shards, a seal appending one, a
// compaction substituting a merged shard for its victims. ix is
// unchanged, so in-flight queries against the old value stay correct; a
// replacement must hold exactly the victims' trajectory count, so every
// global ID (and therefore every outstanding cursor) keeps its meaning.
// A shard's timestamp store travels with it, and either every shard
// has one or none does.
func (ix *Index) spliced(lo, hi int, repl ...*shard) (*Index, error) {
	switch {
	case lo < 0 || hi > len(ix.shards) || lo > hi:
		return nil, fmt.Errorf("cinct: splice [%d,%d) outside shard range [0,%d]", lo, hi, len(ix.shards))
	case lo == hi && lo != len(ix.shards):
		return nil, fmt.Errorf("cinct: splice can only insert at the end of the shard list")
	}
	temporal := ix.Temporal()
	if len(ix.shards) == 0 && len(repl) > 0 {
		temporal = repl[0].ts != nil
	}
	rows := 0
	for _, sh := range repl {
		n := sh.corpus.NumTrajectories()
		switch {
		case (sh.core.SampleRate() > 0) != ix.hasLoc:
			return nil, fmt.Errorf("%w: existing shards and new shard disagree on locate support", ErrNotAppendable)
		case (sh.ts != nil) != temporal:
			return nil, fmt.Errorf("%w: existing shards and new shard disagree on carrying timestamps", ErrNotAppendable)
		case temporal && sh.ts.NumTrajectories() != n:
			return nil, fmt.Errorf("cinct: %d timestamp columns for a %d-trajectory shard", sh.ts.NumTrajectories(), n)
		}
		rows += n
	}
	if want := ix.bounds[hi] - ix.bounds[lo]; lo < hi && rows != want {
		return nil, fmt.Errorf("cinct: splice replacement holds %d trajectories where victims held %d", rows, want)
	}
	shards := make([]*shard, 0, len(ix.shards)-(hi-lo)+len(repl))
	shards = append(shards, ix.shards[:lo]...)
	shards = append(shards, repl...)
	shards = append(shards, ix.shards[hi:]...)
	// Replacements preserve the victims' row count and appends extend
	// past the old end, so every surviving bound is reusable verbatim.
	bounds := make([]int, 0, len(shards)+1)
	bounds = append(bounds, ix.bounds[:lo+1]...)
	for _, sh := range repl {
		bounds = append(bounds, bounds[len(bounds)-1]+sh.corpus.NumTrajectories())
	}
	bounds = append(bounds, ix.bounds[hi+1:]...)
	// The distinct-edge union is recomputed over all shards: the count
	// alone cannot be merged incrementally (overlap with the new shard
	// is unknown), and the map build is dwarfed by the compression
	// build that preceded every call here.
	corpora := make([]*trajstr.Corpus, len(shards))
	for i, sh := range shards {
		corpora[i] = sh.corpus
	}
	return &Index{
		shards: shards,
		bounds: bounds,
		edges:  trajstr.CountDistinctEdges(corpora),
		hasLoc: ix.hasLoc,
	}, nil
}

// buildShard compresses validated rows — and, when times is non-nil,
// their timestamp columns — into one shard: the unit a seal appends
// and a compaction substitutes.
func buildShard(trajs [][]uint32, times [][]int64, opts *Options) (*shard, error) {
	corpus, err := trajstr.New(trajs)
	if err != nil {
		return nil, err
	}
	sh := newShard(corpus, opts)
	if times != nil {
		sh.ts = tempo.New(times)
	}
	return sh, nil
}

// mergeShards decodes every trajectory (and timestamp column) owned by
// shards[lo:hi) — in global-ID order, so the merged shard assigns each
// row the same global ID its victim shard did — and rebuilds them as
// one CiNCT-compressed shard sharing a single wavelet/ET-graph model.
func (ix *Index) mergeShards(lo, hi int, opts *Options) (*shard, error) {
	trajs := make([][]uint32, 0, ix.bounds[hi]-ix.bounds[lo])
	var times [][]int64
	for s, sh := range ix.shards[lo:hi] {
		for k, n := 0, sh.corpus.NumTrajectories(); k < n; k++ {
			tr, err := sh.subPath(k, 0, sh.corpus.TrajectoryLen(k))
			if err != nil {
				return nil, fmt.Errorf("cinct: compaction decoding shard %d row %d: %w", lo+s, k, err)
			}
			trajs = append(trajs, tr)
			if sh.ts != nil {
				times = append(times, sh.ts.Column(k))
			}
		}
	}
	return buildShard(trajs, times, opts)
}

// CompactRange merges shards [lo, hi) — spatial indexes and timestamp
// stores together — into one CiNCT-compressed shard and returns the
// new index; ix is unchanged (copy-on-write, like AppendSealed). Global
// trajectory IDs are preserved exactly: the victims form a contiguous
// ID range and the merged shard assigns the same IDs in the same order,
// so query answers — and outstanding (Trajectory, Offset) cursors — are
// identical before and after. opts nil means DefaultOptions.
func (ix *Index) CompactRange(lo, hi int, opts *Options) (*Index, error) {
	if opts == nil {
		opts = DefaultOptions()
	}
	if err := validateOptions(opts); err != nil {
		return nil, err
	}
	if lo < 0 || hi > len(ix.shards) || hi-lo < 2 {
		return nil, fmt.Errorf("cinct: CompactRange [%d,%d) needs at least two shards in [0,%d]", lo, hi, len(ix.shards))
	}
	merged, err := ix.mergeShards(lo, hi, opts)
	if err != nil {
		return nil, err
	}
	return ix.spliced(lo, hi, merged)
}

// CompactionResult reports one Writer.Compact round.
type CompactionResult struct {
	// Merged is the number of victim shards rewritten (0 when the
	// shard set was already within policy).
	Merged int
	// Rows is the number of trajectories re-compressed.
	Rows int
	// Lo, Hi bound the victim range within the sealed shard list.
	Lo, Hi int
	// ShardsBefore, ShardsAfter count sealed shards around the round.
	ShardsBefore, ShardsAfter int
}

// Compact runs one round of tiered compaction over the sealed shards:
// pick victims per policy, decode their trajectories (and timestamp
// columns), rebuild them as one CiNCT-compressed shard, and swap the
// spliced shard set in under the writer's generation lock. Returns a
// zero-Merged result when the shard set is already within policy.
//
// Appends, seals and searches proceed during the rebuild: like Seal,
// the expensive work runs against an immutable snapshot and only the
// final swap takes the write lock. Because the victims are a
// contiguous run of shards and the merged shard preserves their rows
// in global-ID order, the trajectory-ID space is untouched — in-flight
// Search iterators finish on the old shard set, and resumable cursors
// (which address by (Trajectory, Offset)) remain valid across the
// swap, exactly as they do across a seal. Call in a loop (until
// Merged == 0) to reach the policy's fixpoint, e.g. after a bulk load.
func (w *Writer) Compact(p CompactionPolicy) (CompactionResult, error) {
	// Serialized with other compactions (not seals): two concurrent
	// rounds could pick overlapping victims and splice each other's
	// work away.
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	w.mu.RLock()
	snap := w.sealed
	w.mu.RUnlock()
	res := CompactionResult{ShardsBefore: len(snap.shards), ShardsAfter: len(snap.shards)}
	lo, hi := pickCompaction(snap.shardSizes(), p)
	if hi-lo < 2 {
		return res, nil
	}
	merged, err := snap.mergeShards(lo, hi, w.opts)
	if err != nil {
		return res, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// Concurrent seals may have appended shards since the snapshot,
	// but shards [lo, hi) are still the victims: seals only ever
	// append, compactions are serialized above, and a splice keeps the
	// untouched shard pointers. Verify anyway — a silent mismatch here
	// would corrupt the ID space.
	cur := w.sealed
	if len(cur.shards) < hi {
		return res, errCompactRaced
	}
	for i := lo; i < hi; i++ {
		if cur.shards[i] != snap.shards[i] {
			return res, errCompactRaced
		}
	}
	next, err := cur.spliced(lo, hi, merged)
	if err != nil {
		return res, err
	}
	w.sealed = next
	w.gen++
	res.Merged = hi - lo
	res.Rows = merged.corpus.NumTrajectories()
	res.Lo, res.Hi = lo, hi
	res.ShardsAfter = res.ShardsBefore - res.Merged + 1
	return res, nil
}

// SealedShards returns the number of compressed shards in the sealed
// index — the fan-out every Search pays for, and the quantity
// compaction exists to bound.
func (w *Writer) SealedShards() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.sealed.shards)
}
