package cinct

import (
	"bytes"
	"context"
	"encoding/binary"
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
// given shard count, written by a writer Save no longer is — the
// stream formats from before v3, a v3 container of version 3 or 4, or
// one of version 5 with kind 6 encoding 1. The
// readers refuse each with ErrLegacyFormat, and `cinct convert`
// rewrites it.
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
	{"v4-spatial-1.cinct", 7, 1, false},              // container version 4: one
	{"v4-spatial-4.cinct", 7, 4, false},              // section per shard frame and
	{"v4-temporal-1.tcinct", 7, 1, true},             // per timestamp store, at
	{"v4-temporal-4.tcinct", 7, 4, true},             // SampleRate 40
	{"v5-spatial-1.cinct", 7, 1, false},              // container version 5
	{"v5-spatial-4.cinct", 7, 4, false},              // with kind 6 encoding 1:
	{"v5-temporal-1.tcinct", 7, 1, true},             // the labeled wavelet tree
	{"v5-temporal-4.tcinct", 7, 4, true},             // before the $ escape
}

func (fx legacyFixture) read(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", fx.file))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// convert does what `cinct convert` does with the fixture: decode the
// corpus it holds and rebuild it with the options it recorded. It
// returns the v3 file that writes.
func (fx legacyFixture) convert(t *testing.T) []byte {
	t.Helper()
	return convertLegacy(t, fx.file, fx.read(t))
}

// convertLegacy converts the old file data, named name.
func convertLegacy(t *testing.T, name string, data []byte) []byte {
	t.Helper()
	c, err := legacy.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("legacy.Decode(%s): %v", name, err)
	}
	opts := Options(c.Options)
	ix, err := build(c.Trajs, c.Times, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return saveV3Bytes(t, ix)
}

// convertAndMap re-saves a loaded index, as `cinct convert` does with a
// current file, and opens the result through OpenMapped.
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
	if res, err := w.Compact(true); err != nil || res.ShardsAfter != 1 {
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
// committed older file converts — through the bytes `cinct convert`
// writes for it — and the result, loaded, re-saved or mapped in place,
// answers exactly like a fresh Build of the same corpus.
func TestV3LegacyFormatsStillLoad(t *testing.T) {
	for _, fx := range legacyFixtures {
		t.Run(fx.file, func(t *testing.T) {
			file := fx.convert(t)
			loaded, err := Load(bytes.NewReader(file))
			if err != nil {
				t.Fatalf("Load(converted %s): %v", fx.file, err)
			}
			t.Run("load", func(t *testing.T) { checkLegacyAnswers(t, fx, loaded) })
			t.Run("converted", func(t *testing.T) { checkLegacyAnswers(t, fx, convertAndMap(t, loaded)) })
			t.Run("mapped", func(t *testing.T) { checkLegacyAnswers(t, fx, mapV3(t, file)) })
		})
	}
}

// TestLegacyFormatRefused pins the typed refusal of every old fixture,
// version-3 containers included, by every reader: the error is
// ErrLegacyFormat and names the converter.
func TestLegacyFormatRefused(t *testing.T) {
	for _, fx := range legacyFixtures {
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
// store count 1, both committed fixtures, timedCorpus(12) in 3 shards)
// and a version-3 container with storeCount 1 < shardCount (the frames
// of v5-spatial-4.cinct beside one store of timedCorpus(7)) convert to
// one store per shard, and then behave like the BuildTemporal index
// over the same corpus (see checkLegacyAnswers). The readers refuse
// that version-3 file as legacy.
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

	// The version-3 file takes its frames from a frozen version-5 one,
	// whose wavelet trees are the encoding version 3 wrote.
	fx := legacyFixture{"v5-spatial-4.cinct", 7, 4, true}
	_, times := timedCorpus(fx.seed)
	frames := v4Frames(fx.read(t))
	fw := flat.NewWriter()
	tempo.New(times).AppendFlat(fw)
	v3 := v4Container(3, frames, [][]uint64{fw.Words()})
	_, errLoad := Load(bytes.NewReader(v3))
	_, errMap := OpenMapped(writeTemp(t, v3))
	if !errors.Is(errLoad, ErrLegacyFormat) || !errors.Is(errMap, ErrLegacyFormat) {
		t.Errorf("version 3, 1 store for %d shards: Load err = %v, OpenMapped err = %v; want ErrLegacyFormat",
			fx.shards, errLoad, errMap)
	}
	converted := convertLegacy(t, "version-3 global store", v3)
	t.Run("v3", func(t *testing.T) {
		got, err := LoadTemporal(bytes.NewReader(converted))
		if err != nil {
			t.Fatalf("LoadTemporal: %v", err)
		}
		checkLegacyAnswers(t, fx, got.Index)
	})
	t.Run("v3-mapped", func(t *testing.T) { checkLegacyAnswers(t, fx, mapV3(t, converted)) })
}

// v4Frames lays the shards of a version-5 container whose labeled
// wavelet trees are kind 6 encoding 1 out as a version-3 or -4
// container's spatial frames: the corpus metadata (symbol map, then
// trajectory tables), then the core index — each shard's sections of
// kinds 1–9 in kind order, its timestamps left out.
func v4Frames(file []byte) [][]uint64 {
	words := make([]uint64, len(file)/8)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(file[8*i:])
	}
	frames := make([][]uint64, words[2])
	for i := uint64(0); i < words[3]; i++ {
		e := words[headerWords+tocEntryWords*i:]
		if e[0]&(1<<32-1) <= kindISA {
			frames[e[1]] = append(frames[e[1]], words[e[2]/8:(e[2]+e[3])/8]...)
		}
	}
	return frames
}

// v4Container writes spatial frames and timestamp stores as a v3
// container of the given version — header {magic, version, flavor,
// section count, file size, shard count, store count, 0}, TOC entries
// {kind 1 frame or 2 store, shard, offset, length}, each section
// page-aligned — the layout internal/legacy decodes.
func v4Container(version uint64, frames, stores [][]uint64) []byte {
	secs := append(append([][]uint64{}, frames...), stores...)
	flavor := uint64(1)
	if len(stores) > 0 {
		flavor = 2
	}
	words := []uint64{v3MagicWord, version, flavor, uint64(len(secs)), 0, uint64(len(frames)), uint64(len(stores)), 0}
	off := pageAlign(int64(8 * (8 + 4*len(secs))))
	var body []uint64
	for i, sec := range secs {
		kind, shard := uint64(1), uint64(i)
		if i >= len(frames) {
			kind, shard = 2, uint64(i-len(frames))
		}
		words = append(words, kind, shard, uint64(off), uint64(8*len(sec)))
		body = append(body, make([]uint64, off/8-int64(len(body))-int64(8+4*len(secs)))...)
		body = append(body, sec...)
		off = pageAlign(off + int64(8*len(sec)))
	}
	words[4] = uint64(off)
	words = append(words, body...)
	words = append(words, make([]uint64, off/8-int64(len(words)))...)
	return wordBytes(words)
}

// TestV3Int32Repacks pins the conversion of a version-3 file: its
// int32 locate samples are not read, and the index rebuilt from the
// corpus it holds writes exactly the bytes a fresh build at its sample
// rate (64) writes today.
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
			if !bytes.Equal(fx.convert(t), saveV3Bytes(t, want)) {
				t.Error("converted bytes differ from a fresh SampleRate-64 build")
			}
		})
	}
}
