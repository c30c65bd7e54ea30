package cinct

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"cinct/internal/trajgen"
)

func shardedTestCorpus(t testing.TB) [][]uint32 {
	t.Helper()
	cfg := trajgen.Config{GridW: 10, GridH: 10, NumTrajs: 300, MeanLen: 22, Seed: 31}
	return trajgen.Singapore2(cfg).Trajs
}

// queryPaths samples sub-paths of the corpus plus a path that matches
// nothing and a path with an unknown edge.
func queryPaths(trajs [][]uint32) [][]uint32 {
	paths := make([][]uint32, 0, 42)
	for k := 0; k < 40; k++ {
		tr := trajs[(k*7)%len(trajs)]
		if len(tr) < 3 {
			continue
		}
		m := 2 + k%3
		if m > len(tr) {
			m = len(tr)
		}
		paths = append(paths, tr[:m])
	}
	paths = append(paths, []uint32{1 << 30}) // edge absent from every shard
	paths = append(paths, trajs[0][:1])
	return paths
}

// TestShardedDifferential is the acceptance test: every public query
// on a K-sharded index must answer byte-for-byte identically to the
// monolithic index over the same corpus.
func TestShardedDifferential(t *testing.T) {
	trajs := shardedTestCorpus(t)
	mono, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3, 8} {
		opts := DefaultOptions()
		opts.Shards = k
		sharded, err := Build(trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Shards() != k {
			t.Fatalf("Shards() = %d, want %d", sharded.Shards(), k)
		}
		assertSameAnswers(t, mono, sharded, trajs)
	}
}

func assertSameAnswers(t *testing.T, mono, sharded *Index, trajs [][]uint32) {
	t.Helper()
	if got, want := sharded.NumTrajectories(), mono.NumTrajectories(); got != want {
		t.Fatalf("NumTrajectories = %d, want %d", got, want)
	}
	if got, want := sharded.NumEdges(), mono.NumEdges(); got != want {
		t.Fatalf("NumEdges = %d, want %d", got, want)
	}
	for _, path := range queryPaths(trajs) {
		if got, want := sharded.Count(path), mono.Count(path); got != want {
			t.Fatalf("Count(%v) = %d, want %d", path, got, want)
		}
		got, err := search(sharded, Query{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		want, err := search(mono, Query{Path: path})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Find(%v) = %v, want %v", path, got, want)
		}
		// A positive limit keeps the first limit matches in canonical
		// order on both index kinds.
		gotLim, err := search(sharded, Query{Path: path, Limit: 2})
		if err != nil {
			t.Fatal(err)
		}
		wantLim := want
		if len(wantLim) > 2 {
			wantLim = wantLim[:2]
		}
		if !reflect.DeepEqual(gotLim, wantLim) {
			t.Fatalf("Find(%v, 2) = %v, want %v", path, gotLim, wantLim)
		}
		gotIDs, err := searchIDs(sharded, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantIDs, err := searchIDs(mono, path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("FindTrajectories(%v) = %v, want %v", path, gotIDs, wantIDs)
		}
		// Limits apply after the canonical sort, so limited
		// FindTrajectories agrees too.
		gotIDs, err = searchIDs(sharded, path, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(wantIDs) > 3 {
			wantIDs = wantIDs[:3]
		}
		if !reflect.DeepEqual(gotIDs, wantIDs) {
			t.Fatalf("FindTrajectories(%v, 3) = %v, want %v", path, gotIDs, wantIDs)
		}
	}
	for id := 0; id < mono.NumTrajectories(); id += 17 {
		if got, want := sharded.TrajectoryLen(id), mono.TrajectoryLen(id); got != want {
			t.Fatalf("TrajectoryLen(%d) = %d, want %d", id, got, want)
		}
		got, err := sharded.Trajectory(id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := mono.Trajectory(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Trajectory(%d) = %v, want %v", id, got, want)
		}
		ln := mono.TrajectoryLen(id)
		from, to := ln/4, ln-ln/4
		gotSub, err := sharded.SubPath(id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		wantSub, err := mono.SubPath(id, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSub, wantSub) {
			t.Fatalf("SubPath(%d,%d,%d) = %v, want %v", id, from, to, gotSub, wantSub)
		}
	}
}

func TestShardedStatsAggregation(t *testing.T) {
	trajs := shardedTestCorpus(t)
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, m := ix.Stats(), mono.Stats()
	if s.Shards != 4 || m.Shards != 1 {
		t.Fatalf("Shards stat: sharded %d, mono %d", s.Shards, m.Shards)
	}
	if s.Trajectories != m.Trajectories || s.Edges != m.Edges {
		t.Fatalf("corpus stats diverge: %+v vs %+v", s, m)
	}
	// Each shard adds one '#' terminator to the text.
	if s.TextLen != m.TextLen+3 {
		t.Fatalf("TextLen = %d, want %d", s.TextLen, m.TextLen+3)
	}
	if ix.Len() != s.TextLen {
		t.Fatalf("Len() = %d, Stats().TextLen = %d", ix.Len(), s.TextLen)
	}
	if s.BitsPerSymbol <= 0 || s.LabelEntropy <= 0 || s.AvgOutDegree <= 0 {
		t.Fatalf("aggregate stats not positive: %+v", s)
	}
	if s.WaveletBits <= 0 || s.GraphBits <= 0 || s.CArrayBits <= 0 || s.LocateBits <= 0 || s.TableBits <= 0 {
		t.Fatalf("aggregate size breakdown not positive: %+v", s)
	}
}

// TestShardedSaveLoadRoundTrip asserts a sharded index survives
// serialization with identical answers.
func TestShardedSaveLoadRoundTrip(t *testing.T) {
	trajs := shardedTestCorpus(t)
	opts := DefaultOptions()
	opts.Shards = 3
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := ix.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Save reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 3 {
		t.Fatalf("loaded Shards() = %d, want 3", loaded.Shards())
	}
	assertSameAnswers(t, ix, loaded, trajs)
}

// TestLoadShardedRejectsGarbage pins Load on a sharded input it cannot
// serve: the pre-v3 CNCTshrd container, whole or as junk after its
// magic, is refused as ErrLegacyFormat; a truncated v3 one is
// ErrCorrupt, not a hang or a panic.
func TestLoadShardedRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("CNCTshrd junk"))); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("want ErrLegacyFormat, got %v", err)
	}
	old, err := os.ReadFile(filepath.Join("testdata", "legacy", "spatial-4.cinct"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(old)); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("want ErrLegacyFormat, got %v", err)
	}
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(shardedTestCorpus(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	full := saveV3Bytes(t, ix)
	if _, err := Load(bytes.NewReader(full[:len(full)/2])); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated container: want ErrCorrupt, got %v", err)
	}
}

func TestBuildShardedDefaults(t *testing.T) {
	trajs := [][]uint32{{1, 2}, {2, 3}, {3, 4}, {4, 5}}
	// Shards = 0 ⇒ one shard.
	one, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", one.Shards())
	}
	// More shards than trajectories clamps to one per trajectory.
	opts := DefaultOptions()
	opts.Shards = 64
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != len(trajs) {
		t.Fatalf("Shards() = %d, want %d", ix.Shards(), len(trajs))
	}
	if _, err := Build(trajs, &Options{Block: 63, SampleRate: 64, Shards: -1}); err == nil {
		t.Fatal("negative Shards must error")
	}
	if _, err := Build([][]uint32{{1}, {}}, opts); err == nil {
		t.Fatal("empty trajectory must error under sharding")
	}
}

func TestShardedNoLocate(t *testing.T) {
	opts := DefaultOptions()
	opts.Shards = 2
	opts.SampleRate = 0
	ix, err := Build([][]uint32{{1, 2}, {2, 3}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.Count([]uint32{2}); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	if _, err := search(ix, Query{Path: []uint32{2}}); !errors.Is(err, ErrNoLocate) {
		t.Fatalf("want ErrNoLocate, got %v", err)
	}
	if _, err := searchIDs(ix, []uint32{2}, 0); !errors.Is(err, ErrNoLocate) {
		t.Fatalf("want ErrNoLocate, got %v", err)
	}
}

// TestShardedConcurrentQueries hammers the fan-out query path from
// many goroutines; run with -race to verify the concurrency claims.
func TestShardedConcurrentQueries(t *testing.T) {
	trajs := shardedTestCorpus(t)
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	paths := queryPaths(trajs)
	want := make([]int, len(paths))
	for i, p := range paths {
		want[i] = ix.Count(p)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(paths)
				if got := ix.Count(paths[i]); got != want[i] {
					errs <- "sharded Count changed under concurrency"
					return
				}
				if _, err := search(ix, Query{Path: paths[i], Limit: 5}); err != nil {
					errs <- err.Error()
					return
				}
				if _, err := ix.Trajectory((g*31 + rep) % ix.NumTrajectories()); err != nil {
					errs <- err.Error()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestTemporalSharded checks the temporal layer composes with sharding
// (global IDs flow through to the timestamp store).
func TestTemporalSharded(t *testing.T) {
	trajs := [][]uint32{{1, 2, 3}, {2, 3}, {1, 2}}
	times := [][]int64{{100, 110, 120}, {200, 210}, {300, 310}}
	opts := DefaultOptions()
	opts.Shards = 2
	ix, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := search(ix, Query{Path: []uint32{1, 2}, Interval: &Interval{From: 250, To: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Trajectory != 2 || hits[0].EnteredAt != 300 {
		t.Fatalf("FindInInterval = %+v", hits)
	}
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTemporal(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Shards() != 2 {
		t.Fatalf("loaded temporal index has %d shards", loaded.Shards())
	}
	hits2, err := search(loaded, Query{Path: []uint32{1, 2}, Interval: &Interval{From: 250, To: 400}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, hits2) {
		t.Fatalf("round-trip changed answers: %+v vs %+v", hits, hits2)
	}
}
