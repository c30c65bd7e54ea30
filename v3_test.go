package cinct

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"cinct/internal/trajgen"
)

// saveV3Bytes serializes via Save into memory.
func saveV3Bytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if buf.Len()%v3PageSize != 0 {
		t.Fatalf("v3 container is %d bytes, not page-aligned", buf.Len())
	}
	return buf.Bytes()
}

// mapV3 writes the container to a temp file and opens it zero-copy.
func mapV3(t *testing.T, data []byte) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.cinct3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ix, err := OpenMapped(path)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	return ix
}

// TestV3RoundTrip pins Save → Load (heap view) and Save →
// OpenMapped (zero-copy view) against the in-memory original, over
// monolithic and sharded spatial indexes, with and without locate
// support. All three instances must answer the full PR-4 query matrix
// identically.
func TestV3RoundTrip(t *testing.T) {
	trajs := shardedTestCorpus(t)
	for _, shards := range []int{1, 4} {
		for _, sa := range []int{DefaultOptions().SampleRate, 0} {
			opts := DefaultOptions()
			opts.Shards = shards
			opts.SampleRate = sa
			orig, err := Build(trajs, opts)
			if err != nil {
				t.Fatal(err)
			}
			data := saveV3Bytes(t, orig)
			heap, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("shards=%d sa=%d: Load(v3): %v", shards, sa, err)
			}
			mapped := mapV3(t, data)
			if !mapped.Mapped() {
				t.Fatal("OpenMapped index does not report Mapped")
			}
			if heap.Mapped() {
				t.Fatal("heap-loaded index reports Mapped")
			}
			for _, ix := range []*Index{heap, mapped} {
				if ix.NumTrajectories() != orig.NumTrajectories() ||
					ix.Shards() != orig.Shards() || ix.Len() != orig.Len() ||
					ix.NumEdges() != orig.NumEdges() {
					t.Fatalf("shards=%d sa=%d: metadata mismatch", shards, sa)
				}
				checkSameAnswers(t, trajs, orig, ix, sa > 0)
			}
		}
	}
}

// TestSampleRatesMatchBruteForce pins locate and extraction at sample
// rates whose packed widths straddle words (1, 2, 3, 7) and at the
// current and former defaults (40, 64), on 1 and 4 shards, in each form
// an index is served from: heap Load of the saved file and OpenMapped
// of it. Every trajectory, a slice of each, and every occurrence list
// must equal brute force over the corpus.
func TestSampleRatesMatchBruteForce(t *testing.T) {
	trajs, _ := timedCorpus(7)
	rng := rand.New(rand.NewSource(29))
	var paths [][]uint32
	for len(paths) < 16 {
		paths = append(paths, genPath(rng, trajs))
	}
	for _, shards := range []int{1, 4} {
		for _, rate := range []int{1, 2, 3, 7, 40, 64} {
			opts := DefaultOptions()
			opts.Shards, opts.SampleRate = shards, rate
			ix, err := Build(trajs, opts)
			if err != nil {
				t.Fatal(err)
			}
			data := saveV3Bytes(t, ix)
			heap, err := Load(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			forms := map[string]*Index{"heap": heap, "mapped": mapV3(t, data)}
			for name, got := range forms {
				for id, tr := range trajs {
					if sub, err := got.Trajectory(id); err != nil || !slices.Equal(sub, tr) {
						t.Fatalf("shards=%d rate=%d %s: Trajectory(%d) = %v, %v; want %v", shards, rate, name, id, sub, err, tr)
					}
					from := rng.Intn(len(tr))
					to := from + 1 + rng.Intn(len(tr)-from)
					if sub, err := got.SubPath(id, from, to); err != nil || !slices.Equal(sub, tr[from:to]) {
						t.Fatalf("shards=%d rate=%d %s: SubPath(%d, %d, %d) = %v, %v; want %v",
							shards, rate, name, id, from, to, sub, err, tr[from:to])
					}
				}
				for _, path := range paths {
					q := Query{Path: path}
					hits, err := search(got, q)
					if err != nil {
						t.Fatal(err)
					}
					if want, _ := oracleSearch(trajs, nil, q); !sameHits(hits, want) {
						t.Fatalf("shards=%d rate=%d %s: %v hits %v, want %v", shards, rate, name, path, hits, want)
					}
				}
			}
		}
	}
}

// TestLocateBitsMatchFile pins Stats().LocateBits to the file: it is
// the words each shard's locate section adds to the v3 container Save
// writes, the difference between the spatial sections with and
// without locate support.
func TestLocateBitsMatchFile(t *testing.T) {
	trajs, _ := timedCorpus(7)
	for _, shards := range []int{1, 4} {
		sectionBytes := func(rate int) (ix *Index, total uint64) {
			opts := DefaultOptions()
			opts.Shards, opts.SampleRate = shards, rate
			ix, err := Build(trajs, opts)
			if err != nil {
				t.Fatal(err)
			}
			data := saveV3Bytes(t, ix)
			word := func(k uint64) uint64 { return binary.LittleEndian.Uint64(data[8*k:]) }
			for i := uint64(0); i < word(3); i++ {
				total += word(8 + 4*i + 3) // TOC entry i: {kind, shard, offset, length}
			}
			return ix, total
		}
		ix, with := sectionBytes(DefaultOptions().SampleRate)
		_, without := sectionBytes(0)
		if got, want := ix.Stats().LocateBits, int(with-without)*8; got != want {
			t.Fatalf("shards=%d: LocateBits = %d, the file's locate sections hold %d bits", shards, got, want)
		}
	}
}

// checkSameAnswers runs the query matrix against want and got and
// requires byte-identical results.
func checkSameAnswers(t *testing.T, trajs [][]uint32, want, got *Index, hasLoc bool) {
	t.Helper()
	for qi, path := range queryPaths(trajs) {
		if w, g := want.Count(path), got.Count(path); w != g {
			t.Fatalf("q%d: Count = %d, want %d", qi, g, w)
		}
		if !hasLoc {
			if _, err := search(got, Query{Path: path}); !errors.Is(err, ErrNoLocate) {
				t.Fatalf("q%d: no-locate index Find err = %v, want ErrNoLocate", qi, err)
			}
			continue
		}
		for _, limit := range []int{0, 3} {
			wm, err := search(want, Query{Path: path, Limit: limit})
			if err != nil {
				t.Fatal(err)
			}
			gm, err := search(got, Query{Path: path, Limit: limit})
			if err != nil {
				t.Fatalf("q%d limit=%d: Find: %v", qi, limit, err)
			}
			if len(wm) != len(gm) {
				t.Fatalf("q%d limit=%d: %d matches, want %d", qi, limit, len(gm), len(wm))
			}
			for i := range wm {
				if wm[i] != gm[i] {
					t.Fatalf("q%d limit=%d: match %d = %+v, want %+v", qi, limit, i, gm[i], wm[i])
				}
			}
		}
	}
	if hasLoc {
		for id := 0; id < want.NumTrajectories(); id += 7 {
			w, err := want.Trajectory(id)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.Trajectory(id)
			if err != nil {
				t.Fatalf("Trajectory(%d): %v", id, err)
			}
			if len(w) != len(g) {
				t.Fatalf("Trajectory(%d): len %d, want %d", id, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("Trajectory(%d) differs at %d", id, i)
				}
			}
		}
	}
}

// TestV3TemporalRoundTrip pins the temporal container: Save →
// LoadTemporal and → OpenMappedTemporal must answer interval queries
// identically to the original, over aligned sharded stores.
func TestV3TemporalRoundTrip(t *testing.T) {
	trajs, times := timedCorpus(11)
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		orig, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			t.Fatal(err)
		}
		data := saveV3Bytes(t, orig.Index)
		heap, err := LoadTemporal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("shards=%d: LoadTemporal(v3): %v", shards, err)
		}
		path := filepath.Join(t.TempDir(), "index.cinct3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenMappedTemporal(path)
		if err != nil {
			t.Fatalf("shards=%d: OpenMappedTemporal: %v", shards, err)
		}
		if !mapped.Index.Mapped() {
			t.Fatal("mapped temporal index does not report Mapped")
		}
		pat := frequentEdge(trajs)
		queries := []Query{
			{Path: pat, Kind: CountOnly},
			{Path: pat, Kind: Occurrences},
			{Path: pat, Kind: CountOnly, Interval: &Interval{From: 0, To: 1 << 62}},
			{Path: pat, Kind: Occurrences, Interval: &Interval{From: 200, To: 4000}},
			{Path: pat, Kind: Trajectories, Interval: &Interval{From: 200, To: 4000}, Limit: 3},
		}
		for qi, q := range queries {
			wr, err := orig.Search(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			want := drain(t, wr)
			for _, tix := range []*TemporalIndex{heap, mapped} {
				gr, err := tix.Search(ctx, q)
				if err != nil {
					t.Fatalf("shards=%d q%d: %v", shards, qi, err)
				}
				got := drain(t, gr)
				if len(want) != len(got) {
					t.Fatalf("shards=%d q%d: %d hits, want %d", shards, qi, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("shards=%d q%d: hit %d = %+v, want %+v", shards, qi, i, got[i], want[i])
					}
				}
			}
		}
		// Timestamps must decode identically through the mapped store.
		for id := 0; id < orig.Index.NumTrajectories(); id += 5 {
			w := orig.Timestamps(id)
			g := mapped.Timestamps(id)
			if len(w) != len(g) {
				t.Fatalf("Timestamps(%d): len %d, want %d", id, len(g), len(w))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("Timestamps(%d) differs at %d", id, i)
				}
			}
		}
	}
}

// TestV3FlavorMismatch pins that the header's flavor, not the caller,
// decides what a file is: Load returns a temporal container temporal
// and a spatial one spatial, and only the entry points that promise
// timestamps refuse a spatial file, with ErrNoTimestamps.
func TestV3FlavorMismatch(t *testing.T) {
	trajs, times := timedCorpus(17)
	ix, err := Build(trajs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tix, err := BuildTemporal(trajs, times, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spatial := saveV3Bytes(t, ix)
	temporal := saveV3Bytes(t, tix.Index)
	if _, err := LoadTemporal(bytes.NewReader(spatial)); !errors.Is(err, ErrNoTimestamps) {
		t.Fatalf("LoadTemporal(spatial v3) err = %v, want ErrNoTimestamps", err)
	}
	if _, err := OpenMappedTemporal(writeTemp(t, spatial)); !errors.Is(err, ErrNoTimestamps) {
		t.Fatalf("OpenMappedTemporal(spatial v3) err = %v, want ErrNoTimestamps", err)
	}
	for name, data := range map[string][]byte{"spatial": spatial, "temporal": temporal} {
		heap, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("Load(%s v3): %v", name, err)
		}
		mapped := mapV3(t, data)
		for _, got := range []*Index{heap, mapped} {
			if got.Temporal() != (name == "temporal") {
				t.Fatalf("%s v3 loaded with Temporal() = %v", name, got.Temporal())
			}
		}
	}
	// A flavor word that is neither is corruption.
	bad := append([]byte(nil), spatial...)
	binary.LittleEndian.PutUint64(bad[16:], 3)
	if _, err := Load(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(flavor 3) err = %v, want ErrCorrupt", err)
	}
}

// writeTemp writes data to a fresh file and returns its path.
func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "index.cinct3")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestV3CorruptContainer flips words across the container: every
// mutation must either fail typed at open or produce an index whose
// queries fail typed — never a panic escaping the API.
func TestV3CorruptContainer(t *testing.T) {
	trajs, times := fuzzCorpus()
	tix, err := BuildTemporal(trajs, times, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := saveV3Bytes(t, tix.Index)
	// Sample ~200 word offsets; every mutation runs a full load plus a
	// query, so an exhaustive sweep belongs to the fuzzer, not CI.
	step := len(base) / 200 / 8 * 8
	if step < 8 {
		step = 8
	}
	pat := []uint32{2, 3}
	for off := 0; off+8 <= len(base); off += step {
		for _, bit := range []int{0, 17, 63} {
			mut := append([]byte(nil), base...)
			mut[off+bit/8] ^= 1 << (bit % 8)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("offset %d bit %d: panic escaped: %v", off, bit, r)
					}
				}()
				got, err := LoadTemporal(bytes.NewReader(mut))
				if err != nil {
					// A flip in the flavor word makes the file spatial.
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrNoTimestamps) {
						t.Fatalf("offset %d bit %d: untyped error %v", off, bit, err)
					}
					return
				}
				// Loaded despite the flip: queries must answer or
				// fail typed, not crash.
				r, err := got.Search(context.Background(),
					Query{Path: pat, Kind: Occurrences, Interval: &Interval{From: 0, To: 1 << 62}})
				if err != nil {
					return
				}
				for _, herr := range r.All() {
					if herr != nil {
						return
					}
				}
				_, _ = got.Index.SubPath(0, 0, got.Index.TrajectoryLen(0))
			}()
		}
	}
}

// TestOpenMappedErrors pins the open-path failure modes.
func TestOpenMappedErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenMapped(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("OpenMapped(missing) succeeded")
	}
	short := filepath.Join(dir, "short")
	if err := os.WriteFile(short, []byte("CNCTidx3"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(short); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenMapped(short) err = %v, want ErrCorrupt", err)
	}
	legacy := filepath.Join("testdata", "legacy", "spatial-1.cinct")
	if _, err := OpenMapped(legacy); !errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("OpenMapped(pre-v3 file) err = %v, want ErrLegacyFormat", err)
	}
	// Versions 3 and 4 are read; any other version word is not.
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", "v3-int32-spatial-1.cinct"))
	if err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint64{2, 5} {
		binary.LittleEndian.PutUint64(data[8:], version)
		path := filepath.Join(dir, fmt.Sprintf("version%d", version))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("OpenMapped(version %d) err = %v, want ErrCorrupt", version, err)
		}
	}
}

// craftedV3Header builds a one-page file carrying an otherwise valid
// v3 header with the given flavor and counts — no TOC, no sections.
func craftedV3Header(flavor, nSec, shardCount, storeCount uint64) []byte {
	b := make([]byte, v3PageSize)
	for i, w := range []uint64{
		v3MagicWord(), v3Version, flavor, nSec, v3PageSize, shardCount, storeCount, 0,
	} {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// TestV3HeaderCountOverflow pins the open-boundary guard against
// headers whose counts are chosen so shardCount+storeCount wraps
// uint64 (e.g. 2^64-1 shards + 1 store = 0 sections): the loaders
// must return ErrCorrupt, not panic sizing a 2^64-1-element slice.
func TestV3HeaderCountOverflow(t *testing.T) {
	cases := []struct {
		name                 string
		flavor               uint64
		nSec, shards, stores uint64
	}{
		{"wrapping shard count", v3FlavorTemporal, 0, ^uint64(0), 1},
		{"wrapping store count", v3FlavorTemporal, 0, 0, ^uint64(0)},
		{"huge section count", v3FlavorSpatial, ^uint64(0), ^uint64(0) - 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftedV3Header(tc.flavor, tc.nSec, tc.shards, tc.stores)
			if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load err = %v, want ErrCorrupt", err)
			}
			if _, err := LoadTemporal(bytes.NewReader(data)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("LoadTemporal err = %v, want ErrCorrupt", err)
			}
			path := filepath.Join(t.TempDir(), "crafted.cinct3")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenMapped(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenMapped err = %v, want ErrCorrupt", err)
			}
			if _, err := OpenMappedTemporal(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenMappedTemporal err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestLoadV3AllocationBounded pins the heap path of a v3 file: Load
// reads the stream once, straight into the word image the index views,
// so its allocation stays a small multiple of the file — the image
// itself plus the per-open structures OpenMapped builds too.
func TestLoadV3AllocationBounded(t *testing.T) {
	cfg := trajgen.DefaultConfig()
	cfg.NumTrajs, cfg.Seed = 4000, 3
	opts := DefaultOptions()
	opts.Shards = 4
	ix, err := Build(trajgen.Singapore2(cfg).Trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "index.cinct")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	size, err := ix.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f, err = os.Open(path); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// A file or an in-memory buffer tells Load its length, so the image
	// is the only copy; a bare stream is buffered in chunks first.
	for _, tc := range []struct {
		name  string
		r     io.Reader
		bound uint64
	}{
		{"file", f, 3},
		{"bytes", bytes.NewReader(data), 3},
		{"stream", io.MultiReader(bytes.NewReader(data)), 4},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := Load(tc.r)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: Load: %v", tc.name, err)
		}
		if got.NumTrajectories() != ix.NumTrajectories() {
			t.Fatalf("%s: loaded %d trajectories, want %d", tc.name, got.NumTrajectories(), ix.NumTrajectories())
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: Load of a %d-byte file allocated %d bytes (%.2fx)", tc.name, size, alloc, float64(alloc)/float64(size))
		if alloc > tc.bound*uint64(size) {
			t.Errorf("%s: Load of a %d-byte file allocated %d bytes, want <= %dx", tc.name, size, alloc, tc.bound)
		}
	}
}
