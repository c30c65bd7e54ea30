package cinct

import (
	"errors"
	"sort"
	"testing"

	"cinct/internal/trajgen"
)

func TestFindTrajectoriesDedupes(t *testing.T) {
	// One trajectory traverses the same path twice; it must be listed
	// once.
	trajs := [][]uint32{
		{1, 2, 3, 1, 2, 9}, // path 1→2 twice
		{1, 2},
		{7, 8},
	}
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Count([]uint32{1, 2}); got != 3 {
		t.Fatalf("Count = %d, want 3 occurrences", got)
	}
	ids, err := searchIDs(ix, []uint32{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("FindTrajectories = %v, want [0 1]", ids)
	}
	// Limit applies after dedup.
	ids, err = searchIDs(ix, []uint32{1, 2}, 1)
	if err != nil || len(ids) != 1 {
		t.Fatalf("limited = %v (%v)", ids, err)
	}
}

func TestFindTrajectoriesAgainstBruteForce(t *testing.T) {
	cfg := trajgen.Config{GridW: 9, GridH: 9, NumTrajs: 250, MeanLen: 25, Seed: 17}
	d := trajgen.Singapore2(cfg)
	ix, err := Build(d.Trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 40; trial++ {
		src := d.Trajs[trial%len(d.Trajs)]
		if len(src) < 4 {
			continue
		}
		path := src[1:4]
		// Brute force: scan every trajectory for the sub-path.
		var want []int
		for k, tr := range d.Trajs {
			for i := 0; i+len(path) <= len(tr); i++ {
				match := true
				for j := range path {
					if tr[i+j] != path[j] {
						match = false
						break
					}
				}
				if match {
					want = append(want, k)
					break
				}
			}
		}
		sort.Ints(want)
		got, err := searchIDs(ix, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d trajectories, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: ids differ at %d: %v vs %v", trial, i, got, want)
			}
		}
	}
}

func TestFindTrajectoriesNeedsLocate(t *testing.T) {
	opts := DefaultOptions()
	opts.SampleRate = 0
	ix, err := Build([][]uint32{{1, 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := searchIDs(ix, []uint32{1}, 0); !errors.Is(err, ErrNoLocate) {
		t.Fatalf("want ErrNoLocate, got %v", err)
	}
}
