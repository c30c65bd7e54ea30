package cinct

import (
	"errors"
	"fmt"
	"io"

	"cinct/internal/tempo"
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
// with an Interval, and Save writing the temporal flavor all live
// there — so this type adds no methods. It remains only as the return
// or argument type of BuildTemporal, LoadTemporal, OpenMappedTemporal
// and NewTemporalWriterAt.
type TemporalIndex struct {
	*Index
}

// ErrCorruptTimestamps reports temporal data inconsistent with the
// spatial index it was loaded with.
var ErrCorruptTimestamps = errors.New("cinct: timestamp store inconsistent with spatial index")

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

// TimestampBits returns the compressed size of the timestamp stores in
// bits (reported separately from the spatial index, as the paper keeps
// the two concerns separate); 0 on a spatial index.
func (ix *Index) TimestampBits() int {
	n := 0
	if ix.Temporal() {
		for _, sh := range ix.shards {
			n += sh.ts.SizeBits()
		}
	}
	return n
}

// LoadTemporal is Load for a file that must carry timestamps: a v3
// file of the spatial flavor fails with ErrNoTimestamps.
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

// attachStores gives a freshly viewed (not yet published) spatial
// index its timestamp stores, after checking that they cover exactly
// its trajectories: every column length must equal its trajectory's
// edge count — the invariant that makes every At probe issued by a
// query in-range by construction.
//
// One store per shard is the layout every writer since the sharded
// temporal build produces. Older v3 files may hold a single
// corpus-wide store beside several spatial shards; it is normalised
// here, once: its columns are re-encoded as per-shard stores, so
// search, seal and compaction only ever see a store travelling with its
// shard.
func (ix *Index) attachStores(stores []*tempo.Store) error {
	covers := func(s int, ts *tempo.Store, lo, hi int) error {
		if ts.NumTrajectories() != hi-lo {
			return fmt.Errorf("%w: store %d holds %d columns for %d trajectories",
				ErrCorruptTimestamps, s, ts.NumTrajectories(), hi-lo)
		}
		for id := lo; id < hi; id++ {
			if want := ix.TrajectoryLen(id); ts.Len(id-lo) != want {
				return fmt.Errorf("%w: trajectory %d has %d edges but %d timestamps",
					ErrCorruptTimestamps, id, want, ts.Len(id-lo))
			}
		}
		return nil
	}
	switch {
	case len(stores) == len(ix.shards):
		for s, ts := range stores {
			if err := covers(s, ts, ix.bounds[s], ix.bounds[s+1]); err != nil {
				return err
			}
		}
	case len(stores) == 1:
		global := stores[0]
		if err := covers(0, global, 0, ix.NumTrajectories()); err != nil {
			return err
		}
		stores = make([]*tempo.Store, len(ix.shards))
		// A mapped store is validated in O(metadata) only, so decoding
		// its columns can still trip over deep corruption.
		if err := containCorrupt(func() error {
			for s := range stores {
				cols := make([][]int64, 0, ix.bounds[s+1]-ix.bounds[s])
				for id := ix.bounds[s]; id < ix.bounds[s+1]; id++ {
					cols = append(cols, global.Column(id))
				}
				stores[s] = tempo.New(cols)
			}
			return nil
		}); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: %d timestamp stores for %d shards",
			ErrCorruptTimestamps, len(stores), len(ix.shards))
	}
	for s, sh := range ix.shards {
		sh.ts = stores[s]
	}
	return nil
}
