// The race detector changes allocation counts, so they are only
// meaningful without it.

//go:build !race

package cinct

import (
	"context"
	"testing"
)

// TestHotPathAllocs guards the allocation count of a full Search plus
// Count over a 4-shard temporal index: the plan, each located shard's
// candidate set and the stream state. Lower a pin when a change saves
// allocations; a change that needs more must say why. The pins are the
// counts go1.24 on linux/amd64 measures.
func TestHotPathAllocs(t *testing.T) {
	trajs, times := lazyCorpus(46)
	opts := DefaultOptions()
	opts.Shards = 4
	tix, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every shard holds 5 to 9 occurrences of path, so a limit-10 page
	// spans more than one shard.
	path := trajs[3][4:9]
	iv := &Interval{From: 20000, To: 60000}
	for _, tc := range []struct {
		name   string
		q      Query
		allocs float64
	}{
		{"interval count", Query{Path: path, Interval: iv, Kind: CountOnly}, 6},
		{"interval limit-10 occurrences", Query{Path: path, Interval: iv, Kind: Occurrences, Limit: 10}, 24},
		{"spatial limit-10 occurrences", Query{Path: path, Kind: Occurrences, Limit: 10}, 20},
	} {
		run := func() {
			r, err := tix.Search(context.Background(), tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Count(); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, run); got != tc.allocs {
			t.Errorf("%s: %v allocs/op, want %v", tc.name, got, tc.allocs)
		}
	}
}
