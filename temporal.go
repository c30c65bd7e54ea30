package cinct

import (
	"fmt"
	"io"
)

// TemporalIndex is an Index known to carry timestamps: every shard
// pairs its spatial CiNCT index with a delta-compressed store of the
// same trajectories' entry times. Such an index answers the *strict
// path query* of Krogh et al. (GIS 2014): find trajectories that
// traveled along path P within a time interval. The paper (§VII)
// positions CiNCT as the spatial engine of exactly such systems
// (SNT-index, CTR); this is the combination, with timestamps
// compressed losslessly as in CTR [3].
//
// Timestamps are a property of Index — Temporal, Timestamps, Search
// with an Interval, and Save writing the timestamp sections all live
// there — so this type adds no methods. It remains only as the return
// or argument type of BuildTemporal, LoadTemporal, OpenMappedTemporal
// and NewTemporalWriterAt.
type TemporalIndex struct {
	*Index
}

// BuildTemporal indexes trajectories with their timestamp columns:
// times[k][i] is when trajectory k entered its i-th edge. opts may be
// nil. The index must keep locate support (SampleRate > 0) — strict
// path queries need to identify trajectories. Each shard gets the
// store of its own trajectory range.
func BuildTemporal(trajs [][]uint32, times [][]int64, opts *Options) (*TemporalIndex, error) {
	if err := checkColumns(trajs, times); err != nil {
		return nil, err
	}
	if opts != nil && opts.SampleRate == 0 {
		return nil, fmt.Errorf("cinct: temporal index requires SampleRate > 0")
	}
	ix, err := build(trajs, times, opts)
	if err != nil {
		return nil, err
	}
	return &TemporalIndex{ix}, nil
}

// checkColumns verifies that times is row- and length-aligned with
// trajs.
func checkColumns(trajs [][]uint32, times [][]int64) error {
	if len(times) != len(trajs) {
		return fmt.Errorf("cinct: %d timestamp columns for %d trajectories", len(times), len(trajs))
	}
	for k := range trajs {
		if len(times[k]) != len(trajs[k]) {
			return fmt.Errorf("cinct: trajectory %d has %d edges but %d timestamps",
				k, len(trajs[k]), len(times[k]))
		}
	}
	return nil
}

// Timestamps returns the full timestamp column of a trajectory, or nil
// when id is out of range or the index carries no timestamps.
func (ix *Index) Timestamps(id int) []int64 {
	sh, local, ok := ix.shardOf(id)
	if !ok || sh.ts == nil {
		return nil
	}
	return sh.ts.Column(local)
}

// TimestampBits returns the bits of the timestamp sections, reported
// apart from Stats as the paper keeps the two concerns separate; 0 on
// a spatial index.
func (ix *Index) TimestampBits() int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.sectionBits(kindTimes)
	}
	return n
}

// LoadTemporal is Load for a file that must carry timestamps: a v3
// file without timestamp sections fails with ErrNoTimestamps.
//
// Deprecated: Load returns what the file holds; check Temporal.
func LoadTemporal(r io.Reader) (*TemporalIndex, error) {
	return withTimestamps(Load(r))
}

// OpenMappedTemporal is OpenMapped for a file that must carry
// timestamps, failing like LoadTemporal.
//
// Deprecated: OpenMapped returns what the file holds; check Temporal.
func OpenMappedTemporal(path string) (*TemporalIndex, error) {
	return withTimestamps(OpenMapped(path))
}

func withTimestamps(ix *Index, err error) (*TemporalIndex, error) {
	if err != nil {
		return nil, err
	}
	if !ix.Temporal() {
		return nil, fmt.Errorf("%w: the file holds a spatial index", ErrNoTimestamps)
	}
	return &TemporalIndex{ix}, nil
}
