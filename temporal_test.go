package cinct

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cinct/internal/flat"
	"cinct/internal/tempo"
	"cinct/internal/trajgen"
)

// timedCorpus generates trajectories with plausible entry times.
func timedCorpus(seed int64) ([][]uint32, [][]int64) {
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 120, MeanLen: 20, Seed: seed}
	d := trajgen.MOGen(cfg)
	rng := rand.New(rand.NewSource(seed))
	times := make([][]int64, len(d.Trajs))
	for k, tr := range d.Trajs {
		col := make([]int64, len(tr))
		t := int64(1_700_000_000) + rng.Int63n(86400) // within one day
		for i := range col {
			col[i] = t
			t += 20 + rng.Int63n(60)
		}
		times[k] = col
	}
	return d.Trajs, times
}

func TestTemporalStrictPathQuery(t *testing.T) {
	trajs, times := timedCorpus(1)
	ix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a path known to occur and query exactly its entry window.
	k := 7
	path := trajs[k][2:5]
	entered := times[k][2]

	all, err := search(ix, Query{Path: path, Interval: &Interval{From: entered, To: entered}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range all {
		if m.Trajectory == k && m.Offset == 2 {
			found = true
			if m.EnteredAt != entered {
				t.Fatalf("EnteredAt = %d, want %d", m.EnteredAt, entered)
			}
		}
	}
	if !found {
		t.Fatal("planted temporal occurrence not reported")
	}

	// The interval filter must agree with a brute-force check.
	spatial, err := search(ix, Query{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := entered-3600, entered+3600
	want := 0
	for _, h := range spatial {
		at := times[h.Trajectory][h.Offset]
		if at >= lo && at <= hi {
			want++
		}
	}
	got, err := search(ix, Query{Path: path, Interval: &Interval{From: lo, To: hi}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != want {
		t.Fatalf("interval query returned %d, brute force %d", len(got), want)
	}
	// Empty interval.
	none, err := search(ix, Query{Path: path, Interval: &Interval{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatal("far-past interval should match nothing")
	}
}

func TestTemporalTimestampsRoundTrip(t *testing.T) {
	trajs, times := timedCorpus(2)
	ix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 10, len(trajs) - 1} {
		got := ix.Timestamps(k)
		for i := range times[k] {
			if got[i] != times[k][i] {
				t.Fatalf("trajectory %d timestamps differ at %d", k, i)
			}
		}
	}
	if ix.TimestampBits() <= 0 {
		t.Fatal("TimestampBits must be positive")
	}
}

// TestSaveWritesWhatItHolds pins that Save takes the flavor from the
// index, as Load and OpenMapped do from the file: a temporal index —
// built, loaded, mapped, or a temporal writer's Snapshot, the Writer
// doc's persistence recipe — saves as the golden temporal container
// and reloads with every timestamp.
func TestSaveWritesWhatItHolds(t *testing.T) {
	trajs, times := timedCorpus(7)
	for _, shards := range []int{1, 4} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		built := tix.Index
		data := saveV3Bytes(t, built)
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		over, err := NewWriterAt(built, WriterConfig{})
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]*Index{
			"Build":           built,
			"Load":            loaded,
			"OpenMapped":      mapV3(t, data),
			"Writer.Snapshot": over.Snapshot(),
		}
		if shards == 1 {
			// Sealing the appended corpus makes the same one shard.
			sealed, err := NewTemporalWriter(WriterConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sealed.AppendBatch(trajs, times); err != nil {
				t.Fatal(err)
			}
			if _, err := sealed.Seal(); err != nil {
				t.Fatal(err)
			}
			sources["sealed Writer.Snapshot"] = sealed.Snapshot()
		}
		golden := fmt.Sprintf("temporal-%d/v3", shards)
		for name, ix := range sources {
			got := saveV3Bytes(t, ix)
			if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != goldenHashes[golden] {
				t.Errorf("%d shard(s), %s: Save is not the %s bytes", shards, name, golden)
			}
			re, err := Load(bytes.NewReader(got))
			if err != nil {
				t.Fatal(err)
			}
			if !re.Temporal() {
				t.Fatalf("%d shard(s), %s: reloaded index is not temporal", shards, name)
			}
			for id := range trajs {
				if !reflect.DeepEqual(re.Timestamps(id), times[id]) {
					t.Fatalf("%d shard(s), %s: Timestamps(%d) = %v, want %v", shards, name, id, re.Timestamps(id), times[id])
				}
			}
		}
	}
}

func TestTemporalSaveLoad(t *testing.T) {
	trajs, times := timedCorpus(3)
	ix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTemporal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var path []uint32
	for _, tr := range trajs {
		if len(tr) >= 3 {
			path = tr[:3]
			break
		}
	}
	a, err := search(ix, Query{Path: path, Interval: &Interval{From: 0, To: 1 << 62}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := search(loaded, Query{Path: path, Interval: &Interval{From: 0, To: 1 << 62}})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("reloaded temporal index disagrees: %d vs %d", len(a), len(b))
	}
}

// pathIn returns a planted sub-path [lo, hi) from the first trajectory
// at or after k long enough to contain it.
func pathIn(t *testing.T, trajs [][]uint32, k, lo, hi int) []uint32 {
	t.Helper()
	for ; k < len(trajs); k++ {
		if len(trajs[k]) >= hi {
			return trajs[k][lo:hi]
		}
	}
	t.Fatalf("no trajectory of length >= %d", hi)
	return nil
}

// testIntervals derives a spread of interval shapes from a time range:
// everything, selective slices, a point, and an empty range.
func testIntervals(times [][]int64) [][2]int64 {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, col := range times {
		for _, at := range col {
			if at < lo {
				lo = at
			}
			if at > hi {
				hi = at
			}
		}
	}
	span := hi - lo
	return [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{lo, hi},
		{lo + span/4, lo + span/2},
		{lo + span/2, lo + span/2 + span/20},
		{lo, lo},
		{hi + 1, hi + 2},
		{lo - 10, lo - 1},
	}
}

// TestTemporalShardedMatchesMonolithic pins the sharded temporal
// engine's answers — matches and counts, across interval shapes and
// limits — to the monolithic index over the same corpus.
func TestTemporalShardedMatchesMonolithic(t *testing.T) {
	trajs, times := timedCorpus(5)
	mono, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Shards = 3
	shard, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Shards() != 3 || !shard.Temporal() {
		t.Fatalf("sharded temporal index has %d shards (temporal %v), want 3 with stores", shard.Shards(), shard.Temporal())
	}
	paths := [][]uint32{pathIn(t, trajs, 0, 0, 2), pathIn(t, trajs, 7, 2, 5), pathIn(t, trajs, 40, 0, 1), {1 << 30}}
	for _, path := range paths {
		for _, iv := range testIntervals(times) {
			for _, limit := range []int{0, 1, 3} {
				want, err := search(mono, Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				got, err := search(shard, Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}, Limit: limit})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) && (len(got) != 0 || len(want) != 0) {
					t.Fatalf("FindInInterval(%v, [%d,%d], %d): sharded %v, monolithic %v",
						path, iv[0], iv[1], limit, got, want)
				}
			}
			wantN, err := searchCount(mono, Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}, Kind: CountOnly})
			if err != nil {
				t.Fatal(err)
			}
			gotN, err := searchCount(shard, Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}, Kind: CountOnly})
			if err != nil {
				t.Fatal(err)
			}
			if gotN != wantN {
				t.Fatalf("CountInInterval(%v, [%d,%d]): sharded %d, monolithic %d",
					path, iv[0], iv[1], gotN, wantN)
			}
			all, err := search(mono, Query{Path: path, Interval: &Interval{From: iv[0], To: iv[1]}})
			if err != nil {
				t.Fatal(err)
			}
			if wantN != len(all) {
				t.Fatalf("CountInInterval(%v, [%d,%d]) = %d but FindInInterval returned %d",
					path, iv[0], iv[1], wantN, len(all))
			}
		}
	}
}

// TestTemporalLoadRejectsShapeMismatch writes containers whose
// timestamp columns do not fit the trajectories; the load must fail
// instead of arming a panic inside a later query.
func TestTemporalLoadRejectsShapeMismatch(t *testing.T) {
	trajs, times := timedCorpus(7)
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	short := make([][]int64, len(times))
	copy(short, times)
	short[3] = short[3][:1]
	for name, cols := range map[string][][]int64{
		"column/trajectory length": short,
		"column count":             times[:len(times)-1],
	} {
		fw := flat.NewWriter()
		tempo.New(cols).AppendFlat(fw)
		secs := []v3Section{ix.shards[0].spatialSection(0), {kind: v3KindTempo, words: fw.Words()}}
		var buf bytes.Buffer
		if _, err := writeV3(&buf, v3FlavorTemporal, 0, 1, secs); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadTemporal(&buf); !errors.Is(err, ErrCorruptTimestamps) {
			t.Fatalf("%s mismatch: err = %v, want ErrCorruptTimestamps", name, err)
		}
	}
}

// TestTemporalEarlyExitAndPruning is the pushdown regression test: a
// small limit must bound the timestamp decode work instead of probing
// every spatial hit, and an interval that excludes every trajectory
// must decode nothing at all.
func TestTemporalEarlyExitAndPruning(t *testing.T) {
	trajs, times := timedCorpus(8)
	tix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A short path with many occurrences.
	path := pathIn(t, trajs, 7, 2, 3)
	n, err := searchCount(tix, Query{Path: path, Interval: &Interval{From: math.MinInt64, To: math.MaxInt64}, Kind: CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("need a frequent path for the early-exit test; got %d hits", n)
	}
	store := tix.shards[0].ts

	store.ResetAtSteps()
	if _, err := search(tix, Query{Path: path, Interval: &Interval{From: math.MinInt64, To: math.MaxInt64}}); err != nil {
		t.Fatal(err)
	}
	stepsAll := store.AtSteps()

	store.ResetAtSteps()
	got, err := search(tix, Query{Path: path, Interval: &Interval{From: math.MinInt64, To: math.MaxInt64}, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	steps1 := store.AtSteps()
	if len(got) != 1 {
		t.Fatalf("limit=1 returned %d matches", len(got))
	}
	if steps1 > tempo.BlockSize {
		t.Fatalf("limit=1 decoded %d varints, want <= one block (%d)", steps1, tempo.BlockSize)
	}
	if stepsAll <= steps1 {
		t.Fatalf("limit=0 decoded %d varints, limit=1 decoded %d: no early exit", stepsAll, steps1)
	}

	// Summary pruning: an interval before every timestamp touches no
	// blob bytes.
	store.ResetAtSteps()
	none, err := search(tix, Query{Path: path, Interval: &Interval{From: 0, To: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("far-past interval matched %d", len(none))
	}
	if steps := store.AtSteps(); steps != 0 {
		t.Fatalf("pruned interval still decoded %d varints", steps)
	}
}

func TestTemporalBuildValidation(t *testing.T) {
	trajs, times := timedCorpus(4)
	if _, err := BuildTemporal(trajs, times[:len(times)-1], nil); err == nil {
		t.Fatal("column count mismatch should error")
	}
	bad := make([][]int64, len(times))
	copy(bad, times)
	bad[0] = bad[0][:1]
	if _, err := BuildTemporal(trajs, bad, nil); err == nil {
		t.Fatal("column length mismatch should error")
	}
	opts := DefaultOptions()
	opts.SampleRate = 0
	if _, err := BuildTemporal(trajs, times, opts); err == nil {
		t.Fatal("SampleRate=0 should be rejected for temporal indexes")
	}
}
