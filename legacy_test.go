package cinct

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cinct/internal/flat"
	"cinct/internal/legacy"
	"cinct/internal/tempo"
)

// legacyFixture describes one committed file under testdata/legacy/:
// an index over timedCorpus(seed) built with DefaultOptions and the
// given shard count, written either by the stream-format writers Save
// had before v3 became the only format written, or by an older v3
// writer whose bytes Save no longer produces. The readers refuse the
// pre-v3 ones with ErrLegacyFormat and `cinct convert` rewrites them;
// the v3 ones Load reads and OpenMapped serves in place.
type legacyFixture struct {
	file     string
	seed     int64
	shards   int
	temporal bool
}

var legacyFixtures = []legacyFixture{
	{"spatial-1.cinct", 7, 1, false},                 // single-index (seed v1) format
	{"spatial-4.cinct", 7, 4, false},                 // CNCTshrd container
	{"temporal-1.tcinct", 7, 1, true},                // CNCTtemp over the single-index format
	{"temporal-4.tcinct", 7, 4, true},                // CNCTtemp over CNCTshrd
	{"temporal-1-unversioned.tcinct", 7, 1, true},    // the pre-container temporal layout
	{"global-store-unversioned.tcinct", 12, 3, true}, // one corpus-wide store beside 3 shards...
	{"global-store-cncttemp.tcinct", 12, 3, true},    // ...and the same in a CNCTtemp container, K = 1
	{"v3-all-rrr-spatial-4.cinct", 7, 4, false},      // v3 with every wavelet node RRR...
	{"v3-all-rrr-temporal-1.tcinct", 7, 1, true},     // ...as written before plain nodes
	{"v3-int32-spatial-1.cinct", 7, 1, false},        // container version 3: int32 locate samples
	{"v3-int32-spatial-4.cinct", 7, 4, false},        // at SampleRate 64, mixed node kinds...
	{"v3-int32-temporal-1.tcinct", 7, 1, true},       // ...as written before the samples
	{"v3-int32-temporal-4.tcinct", 7, 4, true},       // were packed
}

func (fx legacyFixture) read(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", fx.file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// v3 reports whether the fixture is a v3 container.
func (fx legacyFixture) v3() bool { return strings.HasPrefix(fx.file, "v3-") }

// mapped opens a v3 fixture in place through OpenMapped, the path
// cinctd serves it by.
func (fx legacyFixture) mapped(t *testing.T) *Index {
	t.Helper()
	ix, err := OpenMapped(filepath.Join("testdata", "legacy", fx.file))
	if err != nil {
		t.Fatalf("OpenMapped(%s): %v", fx.file, err)
	}
	return ix
}

// load reads a v3 fixture through Load.
func (fx legacyFixture) load(t *testing.T) *Index {
	t.Helper()
	ix, err := Load(bytes.NewReader(fx.read(t)))
	if err != nil {
		t.Fatalf("Load(%s): %v", fx.file, err)
	}
	return ix
}

// convert does what `cinct convert` does with a pre-v3 fixture: decode
// the corpus it holds and rebuild it with the options it recorded. It
// returns the v3 file that writes.
func (fx legacyFixture) convert(t *testing.T) []byte {
	t.Helper()
	c, err := legacy.Decode(bytes.NewReader(fx.read(t)))
	if err != nil {
		t.Fatalf("legacy.Decode(%s): %v", fx.file, err)
	}
	opts := Options(c.Options)
	ix, err := build(c.Trajs, c.Times, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return saveV3Bytes(t, ix)
}

// convertAndMap does what `cinct convert` does with a v3 file — Save
// the loaded index — and opens the result through OpenMapped.
func convertAndMap(t *testing.T, ix *Index) *Index {
	t.Helper()
	mapped := mapV3(t, saveV3Bytes(t, ix))
	if !mapped.Mapped() {
		t.Fatal("converted file does not serve mapped")
	}
	return mapped
}

// checkLegacyAnswers pins a legacy-sourced index to a fresh Build of
// the fixture's corpus: shape, reconstruction and timestamps, the full
// query matrix — kinds × limits × intervals, plus a one-hit cursor
// walk — and then Append, Seal and Compact with answers still equal to
// brute force.
func checkLegacyAnswers(t *testing.T, fx legacyFixture, got *Index) {
	t.Helper()
	trajs, times := timedCorpus(fx.seed)
	opts := DefaultOptions()
	opts.Shards = fx.shards
	var want *Index
	var intervals []*Interval
	if fx.temporal {
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		want = tix.Index
		for _, iv := range testIntervals(times) {
			intervals = append(intervals, &Interval{From: iv[0], To: iv[1]})
		}
	} else {
		var err error
		if want, err = Build(trajs, opts); err != nil {
			t.Fatal(err)
		}
		times = nil
	}
	intervals = append(intervals, nil)
	ctx := context.Background()

	if got.Shards() != fx.shards || got.Temporal() != fx.temporal {
		t.Fatalf("loaded as %d shards (temporal %v), want %d (temporal %v)",
			got.Shards(), got.Temporal(), fx.shards, fx.temporal)
	}
	for id := range trajs {
		if tr, err := got.Trajectory(id); err != nil || !reflect.DeepEqual(tr, trajs[id]) {
			t.Fatalf("Trajectory(%d) = %v, %v; want %v", id, tr, err, trajs[id])
		}
		if fx.temporal {
			if ts := got.Timestamps(id); !reflect.DeepEqual(ts, times[id]) {
				t.Fatalf("Timestamps(%d) = %v, want %v", id, ts, times[id])
			}
		}
	}
	paths := [][]uint32{pathIn(t, trajs, 0, 0, 2), pathIn(t, trajs, 7, 2, 3), pathIn(t, trajs, 90, 1, 4), {1 << 30}}
	for _, path := range paths {
		for _, iv := range intervals {
			for _, kind := range []Kind{Occurrences, Trajectories, CountOnly} {
				for _, limit := range []int{0, 1, 3} {
					q := Query{Path: path, Interval: iv, Kind: kind, Limit: limit}
					wr, err := want.Search(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					gr, err := got.Search(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if kind == CountOnly {
						wn, _ := wr.Count()
						if gn, _ := gr.Count(); gn != wn {
							t.Fatalf("%+v: count %d, want %d", q, gn, wn)
						}
						continue
					}
					if wh, gh := drain(t, wr), drain(t, gr); !sameHits(gh, wh) {
						t.Fatalf("%+v: hits %v, want %v", q, gh, wh)
					}
				}
				if kind == CountOnly {
					continue
				}
				// Page by one hit at a time; the pages must concatenate
				// to the unpaged stream.
				q := Query{Path: path, Interval: iv, Kind: kind}
				all, err := search(want, q)
				if err != nil {
					t.Fatal(err)
				}
				var walked []Hit
				q.Limit = 1
				for {
					r, err := got.Search(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					page := drain(t, r)
					walked = append(walked, page...)
					if q.Cursor = r.Cursor(); q.Cursor == "" || len(page) == 0 {
						break
					}
				}
				if !sameHits(walked, all) {
					t.Fatalf("%+v: cursor walk %v, want %v", q, walked, all)
				}
			}
		}
	}

	// A legacy-sourced index is an ordinary one: it ingests and compacts.
	w, err := NewWriterAt(got, WriterConfig{})
	if err != nil {
		t.Fatalf("NewWriterAt: %v", err)
	}
	defer w.Close()
	rng := rand.New(rand.NewSource(fx.seed))
	allTrajs := append([][]uint32{}, trajs...)
	allTimes := append([][]int64{}, times...)
	for round := 0; round < 2; round++ {
		for i := 0; i < 5; i++ {
			tr := genTraj(rng)
			var col []int64
			if fx.temporal {
				col = genTimes(rng, len(tr))
			}
			if _, err := w.Append(tr, col); err != nil {
				t.Fatalf("Append: %v", err)
			}
			allTrajs, allTimes = append(allTrajs, tr), append(allTimes, col)
		}
		if n, err := w.Seal(); err != nil || n != 5 {
			t.Fatalf("Seal = %d, %v; want 5", n, err)
		}
	}
	if res, err := w.Compact(FullCompaction); err != nil || res.ShardsAfter != 1 {
		t.Fatalf("Compact = %+v, %v; want one shard", res, err)
	}
	for _, path := range append(paths, genPath(rng, allTrajs)) {
		for _, iv := range intervals {
			q := Query{Path: path, Interval: iv, Kind: Occurrences}
			hits, _ := drainWriter(t, w, q)
			if exp, _ := oracleSearch(allTrajs, allTimes, q); !sameHits(hits, exp) {
				t.Fatalf("after compaction %+v: %v, oracle %v", q, hits, exp)
			}
		}
	}
}

// TestV3LegacyFormatsStillLoad pins backward compatibility: every
// committed older file is readable — a v3 one through Load directly
// and mapped in place, a pre-v3 one through the bytes `cinct convert`
// writes for it — converts (Save, then OpenMapped), and in every form
// answers exactly like a fresh Build of the same corpus.
func TestV3LegacyFormatsStillLoad(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.file, func(t *testing.T) {
			file := fx.read(t)
			if !fx.v3() {
				file = fx.convert(t)
			}
			loaded, err := Load(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("Load(%s): %v", fx.file, err)
			}
			t.Run("load", func(t *testing.T) { checkLegacyAnswers(t, fx, loaded) })
			t.Run("converted", func(t *testing.T) { checkLegacyAnswers(t, fx, convertAndMap(t, loaded)) })
			if fx.v3() {
				t.Run("mapped", func(t *testing.T) { checkLegacyAnswers(t, fx, fx.mapped(t)) })
			}
		})
	}
}

// TestLegacyFormatRefused pins the typed refusal of every pre-v3
// fixture by every reader: the error is ErrLegacyFormat and names the
// converter.
func TestLegacyFormatRefused(t *testing.T) {
	for _, fx := range legacyFixtures {
		if fx.v3() {
			continue
		}
		path := filepath.Join("testdata", "legacy", fx.file)
		_, errLoad := Load(bytes.NewReader(fx.read(t)))
		_, errLoadT := LoadTemporal(bytes.NewReader(fx.read(t)))
		_, errMap := OpenMapped(path)
		_, errMapT := OpenMappedTemporal(path)
		for name, err := range map[string]error{
			"Load": errLoad, "LoadTemporal": errLoadT, "OpenMapped": errMap, "OpenMappedTemporal": errMapT,
		} {
			if !errors.Is(err, ErrLegacyFormat) || !strings.Contains(err.Error(), "cinct convert") {
				t.Errorf("%s(%s) err = %v, want ErrLegacyFormat naming cinct convert", name, fx.file, err)
			}
		}
	}
}

// TestLegacyTemporalLayout pins the global-store layout — several
// spatial shards beside one corpus-wide timestamp store. Its pre-v3
// encodings (the unversioned stream and the CNCTtemp container with
// store count 1, both committed fixtures) convert to one store per
// shard; a v3 file with storeCount 1 < shardCount, also through the
// mapped path, is normalised to one store per shard at load. Either
// way it then behaves like the BuildTemporal index over the same corpus
// (see checkLegacyAnswers).
func TestLegacyTemporalLayout(t *testing.T) {
	fixtures := map[string]legacyFixture{}
	for _, fx := range legacyFixtures {
		fixtures[fx.file] = fx
	}
	for _, enc := range []struct{ name, file string }{
		{"unversioned", "global-store-unversioned.tcinct"},
		{"CNCTtemp", "global-store-cncttemp.tcinct"},
	} {
		fx := fixtures[enc.file]
		t.Run(enc.name, func(t *testing.T) { checkLegacyAnswers(t, fx, mapV3(t, fx.convert(t))) })
	}

	fx := fixtures["global-store-cncttemp.tcinct"]
	trajs, times := timedCorpus(fx.seed)
	opts := DefaultOptions()
	opts.Shards = fx.shards
	built, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	var secs []v3Section
	for s, sh := range built.shards {
		secs = append(secs, sh.spatialSection(s))
	}
	fw := flat.NewWriter()
	tempo.New(times).AppendFlat(fw)
	secs = append(secs, v3Section{kind: v3KindTempo, words: fw.Words()})
	var v3 bytes.Buffer
	if _, err := writeV3(&v3, v3FlavorTemporal, uint64(fx.shards), 1, secs); err != nil {
		t.Fatal(err)
	}
	t.Run("v3", func(t *testing.T) {
		got, err := LoadTemporal(bytes.NewReader(v3.Bytes()))
		if err != nil {
			t.Fatalf("LoadTemporal: %v", err)
		}
		checkLegacyAnswers(t, fx, got.Index)
	})
	t.Run("v3-mapped", func(t *testing.T) { checkLegacyAnswers(t, fx, mapV3(t, v3.Bytes())) })
}

// TestV3Int32Repacks pins the one conversion a version-3 file gets: its
// int32 locate samples, viewed in place at width 32, are repacked when
// the index is saved, so converting a frozen version-3 fixture writes
// exactly the bytes a fresh build at its sample rate (64) writes today.
func TestV3Int32Repacks(t *testing.T) {
	for _, fx := range legacyFixtures {
		if !strings.HasPrefix(fx.file, "v3-int32-") {
			continue
		}
		t.Run(fx.file, func(t *testing.T) {
			trajs, times := timedCorpus(fx.seed)
			opts := DefaultOptions()
			opts.Shards, opts.SampleRate = fx.shards, 64
			var want *Index
			var err error
			if fx.temporal {
				var tix *TemporalIndex
				tix, err = BuildTemporal(trajs, times, opts)
				want = tix.Index
			} else {
				want, err = Build(trajs, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]*Index{"load": fx.load(t), "mapped": fx.mapped(t)} {
				if !bytes.Equal(saveV3Bytes(t, got), saveV3Bytes(t, want)) {
					t.Errorf("%s: re-saved bytes differ from a fresh SampleRate-64 build", name)
				}
			}
		})
	}
}
