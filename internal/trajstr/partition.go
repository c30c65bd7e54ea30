package trajstr

import "fmt"

// Corpus partitioning for sharded indexes: a corpus of N trajectories
// is split into K contiguous chunks balanced by total edge count, and
// each chunk becomes an independent Corpus (its own edge map, text and
// document tables). Contiguity keeps shard routing trivial — global
// trajectory ID g lives in the shard whose [bounds[s], bounds[s+1])
// range contains g, at local ID g - bounds[s].

// PartitionBounds splits n = len(lengths) documents into at most k
// contiguous non-empty chunks, balancing the summed lengths greedily:
// chunk s ends at the first document whose cumulative length reaches
// (s+1)/k of the total. The result is a bounds slice B with B[0] = 0
// and B[len(B)-1] = n; chunk s is [B[s], B[s+1]). Fewer than k chunks
// are returned when n < k. It panics if k < 1 or n == 0.
func PartitionBounds(lengths []int, k int) []int {
	n := len(lengths)
	if k < 1 {
		panic(fmt.Sprintf("trajstr: partition into %d chunks", k))
	}
	if n == 0 {
		panic("trajstr: partition of empty corpus")
	}
	if k > n {
		k = n
	}
	total := int64(0)
	for _, l := range lengths {
		total += int64(l)
	}
	bounds := make([]int, 1, k+1)
	cum := int64(0)
	next := 0 // first document of the current chunk
	for s := 0; s < k-1; s++ {
		// Cut after the document that crosses the s+1-th k-quantile of
		// the cumulative length, but always advance at least one
		// document and leave at least one per remaining chunk.
		target := total * int64(s+1) / int64(k)
		end := next
		for end < n-(k-1-s) && (end == next || cum < target) {
			cum += int64(lengths[end])
			end++
		}
		bounds = append(bounds, end)
		next = end
	}
	bounds = append(bounds, n)
	return bounds
}

// PartitionCorpus encodes each chunk of trajs described by bounds (as
// returned by PartitionBounds) as an independent Corpus. Each shard
// corpus carries its own dense edge alphabet and document tables over
// its local trajectory IDs.
func PartitionCorpus(trajs [][]uint32, bounds []int) ([]*Corpus, error) {
	shards := make([]*Corpus, len(bounds)-1)
	for s := range shards {
		c, err := New(trajs[bounds[s]:bounds[s+1]])
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		shards[s] = c
	}
	return shards, nil
}

// CountDistinctEdges returns the number of distinct external edge IDs
// across all the given corpora (shards index disjoint trajectory
// ranges, but their edge sets overlap wherever vehicles share roads).
func CountDistinctEdges(shards []*Corpus) int {
	if len(shards) == 1 {
		return shards[0].NumEdges()
	}
	seen := make(map[uint32]struct{})
	for _, c := range shards {
		for _, e := range c.symToEdge {
			seen[e] = struct{}{}
		}
	}
	return len(seen)
}
