package cinct

import (
	"reflect"
	"testing"

	"cinct/internal/trajgen"
)

// TestShardedFindLimitMatchesMonolithic is the regression test for the
// sharded fan-out's limit semantics: for every shard count and every
// limit, Find must return exactly the monolithic index's first-K
// matches in canonical (Trajectory, Offset) order — the limit is
// applied after the global merge, never per shard.
func TestShardedFindLimitMatchesMonolithic(t *testing.T) {
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 240, MeanLen: 18, Seed: 97}
	trajs := trajgen.Singapore2(cfg).Trajs
	mono, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Use paths with many occurrences spread over the whole ID space,
	// so per-shard results are non-trivial for every shard.
	var paths [][]uint32
	for k := 0; k < 24; k++ {
		tr := trajs[(k*11)%len(trajs)]
		m := 1 + k%3
		if m > len(tr) {
			m = len(tr)
		}
		paths = append(paths, tr[:m])
	}

	for _, shards := range []int{2, 3, 5, 8} {
		opts := DefaultOptions()
		opts.Shards = shards
		sharded, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			all, err := search(mono, Query{Path: path})
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int{0, 1, 2, 3, 5, 17, len(all), len(all) + 3} {
				want, err := search(mono, Query{Path: path, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				got, err := search(sharded, Query{Path: path, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d Find(%v, %d) = %v, want %v",
						shards, path, limit, got, want)
				}
				// The limited answer must be the prefix of the full one.
				if limit > 0 && len(want) > limit {
					t.Fatalf("monolithic Find returned %d matches for limit %d", len(want), limit)
				}
				wantIDs, err := searchIDs(mono, path, limit)
				if err != nil {
					t.Fatal(err)
				}
				gotIDs, err := searchIDs(sharded, path, limit)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotIDs, wantIDs) {
					t.Fatalf("shards=%d FindTrajectories(%v, %d) = %v, want %v",
						shards, path, limit, gotIDs, wantIDs)
				}
			}
		}
	}
}
