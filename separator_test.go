package cinct

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"cinct/internal/trajgen"
)

// TestServedSizeGuard pins the served size of a small shard, where the
// separator's context once cost the most: one shard over a generated
// city corpus of 4,096 trajectories of mean length 24, saved and served
// mapped. With the $ block escaped the labeled wavelet tree's section
// holds 2.15 bits/symbol, the file 10.79 and the largest label is 5;
// before it they were 12.24, 21.59 and 1,991.
func TestServedSizeGuard(t *testing.T) {
	d := trajgen.Singapore2(trajgen.Config{GridW: 26, GridH: 26, NumTrajs: 4096, MeanLen: 24, Seed: 1})
	built, err := Build(d.Trajs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "guard.cinct")
	if err := os.WriteFile(path, saveV3Bytes(t, built), 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s := ix.Stats()
	n := float64(s.TextLen)
	fileBits, wtBits := float64(8*fi.Size())/n, float64(s.WaveletBits)/n
	t.Logf("file %.3f bits/symbol, kind-6 section %.3f, MaxLabel %d", fileBits, wtBits, s.MaxLabel)
	if fileBits > maxGuardFileBits || wtBits > 2.5 || s.MaxLabel >= 16 {
		t.Errorf("served %.3f bits/symbol (bound %.2f), labeled wavelet tree %.3f (bound 2.5), MaxLabel %d (bound 15)",
			fileBits, maxGuardFileBits, wtBits, s.MaxLabel)
	}
}

// maxGuardFileBits is TestServedSizeGuard's file bound: the measured
// 10.793 bits/symbol rounded up by under 2%.
const maxGuardFileBits = 11.0

// TestEscapedSeparatorCorpora pins retrieval on corpora whose $ block
// is unusual — one-edge trajectories, a shard of one trajectory, one
// trajectory of one edge — built and served mapped, in one shard and
// in several: every trajectory and every slice of it reads back, and
// every path of up to three edges occurring in the corpus, plus the
// corpus's edges alone, is found where a brute-force scan finds it.
func TestEscapedSeparatorCorpora(t *testing.T) {
	for name, trajs := range map[string][][]uint32{
		"one-edge trajectories": {{5}, {7}, {5}, {9}, {7}, {5}},
		"mixed lengths":         {{5, 6, 7}, {8}, {6, 7}, {5}, {7, 8, 5, 6}, {9}, {6}},
		"one trajectory":        {{3, 4, 5, 3, 4}},
		"one edge":              {{42}},
	} {
		for _, shards := range []int{1, 3} {
			opts := DefaultOptions()
			opts.Shards = shards
			built, err := Build(trajs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for form, ix := range map[string]*Index{"built": built, "mapped": mapV3(t, saveV3Bytes(t, built))} {
				where := fmt.Sprintf("%s, %d shard(s), %s", name, shards, form)
				for id, want := range trajs {
					if got, err := ix.Trajectory(id); err != nil || !slices.Equal(got, want) {
						t.Fatalf("%s: Trajectory(%d) = %v, %v; want %v", where, id, got, err, want)
					}
					for from := 0; from <= len(want); from++ {
						for to := from; to <= len(want); to++ {
							if got, err := ix.SubPath(id, from, to); err != nil || !slices.Equal(got, want[from:to]) {
								t.Fatalf("%s: SubPath(%d, %d, %d) = %v, %v; want %v", where, id, from, to, got, err, want[from:to])
							}
						}
					}
				}
				var paths [][]uint32
				for _, tr := range trajs {
					for i := range tr {
						for j := i + 1; j <= min(i+3, len(tr)); j++ {
							paths = append(paths, tr[i:j])
						}
					}
				}
				for _, path := range append(paths, []uint32{1 << 20}) {
					q := Query{Path: path, Kind: Occurrences}
					got, err := search(ix, q)
					if err != nil {
						t.Fatal(err)
					}
					if want, _ := oracleSearch(trajs, nil, q); !sameHits(got, want) {
						t.Fatalf("%s: %v found at %v, want %v", where, path, got, want)
					}
				}
			}
		}
	}
}
