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
	"strings"
	"testing"

	"cinct/internal/trajgen"
)

// saveV3Bytes serializes via Save into memory.
func saveV3Bytes(t testing.TB, ix *Index) []byte {
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
// the words the locate sections add to the container Save writes, the
// difference between the sections with and without locate support.
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
				total += word(headerWords + tocEntryWords*i + 3) // TOC entry i: {kind|encoding, shard, offset, length}
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

// TestFileAccountsForEveryByte pins the container's size account on
// spatial and temporal indexes of 1, 4 and 16 shards, as built and as
// opened from the file: header, TOC, sections and padding sum to the
// file size, padding is less than a page after the TOC and after each
// shard frame and nothing inside a frame, and Stats' size fields with
// TimestampBits and the header, TOC and padding are the file's bits.
func TestFileAccountsForEveryByte(t *testing.T) {
	trajs, times := timedCorpus(7)
	for _, temporal := range []bool{false, true} {
		for _, shards := range []int{1, 4, 16} {
			opts := DefaultOptions()
			opts.Shards = shards
			ix, err := Build(trajs, opts)
			if temporal {
				var tix *TemporalIndex
				tix, err = BuildTemporal(trajs, times, opts)
				ix = tix.Index
			}
			if err != nil {
				t.Fatal(err)
			}
			data := saveV3Bytes(t, ix)
			word := func(k int) int { return int(binary.LittleEndian.Uint64(data[8*k:])) }
			nSec := word(3)
			framing := 8 * (headerWords + tocEntryWords*nSec) // header and TOC
			end, sections, frames := framing, 0, 0
			for i := range nSec {
				e := headerWords + tocEntryWords*i
				off, length := word(e+2), word(e+3)
				newFrame := i == 0 || word(e+1) != word(e+1-tocEntryWords)
				if gap := off - end; gap < 0 || gap >= v3PageSize || gap > 0 && !newFrame {
					t.Fatalf("temporal=%v shards=%d: TOC entry %d leaves a %d-byte gap", temporal, shards, i, gap)
				}
				if newFrame {
					frames++
				}
				framing += off - end
				sections += length
				end = off + length
			}
			if gap := len(data) - end; gap < 0 || gap >= v3PageSize {
				t.Fatalf("temporal=%v shards=%d: %d bytes of padding after the last frame", temporal, shards, gap)
			}
			framing += len(data) - end
			if frames != shards || framing+sections != len(data) {
				t.Fatalf("temporal=%v shards=%d: %d frames, %d framing + %d section bytes in a %d-byte file",
					temporal, shards, frames, framing, sections, len(data))
			}
			for name, got := range map[string]*Index{"built": ix, "mapped": mapV3(t, data)} {
				st := got.Stats()
				fields := st.WaveletBits + st.GraphBits + st.CArrayBits + st.LocateBits + st.TableBits + got.TimestampBits()
				if fields != 8*sections || fields+8*framing != 8*len(data) {
					t.Fatalf("temporal=%v shards=%d %s: size fields hold %d bits, sections %d, file %d with %d of framing",
						temporal, shards, name, fields, 8*sections, 8*len(data), 8*framing)
				}
			}
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

// TestV3FlavorMismatch pins that the file, not the caller, decides what
// an index is: Load returns a container whose shards have timestamp
// sections temporal and one without them spatial, and only the entry
// points that promise timestamps refuse a spatial file, with
// ErrNoTimestamps. A container with timestamps on only some shards is
// corrupt.
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
	mixed := mixedTimestamps(t, trajs, times)
	if _, err := Load(bytes.NewReader(mixed)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(timestamps on one of two shards) err = %v, want ErrCorrupt", err)
	}
	if _, err := OpenMapped(writeTemp(t, mixed)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenMapped(timestamps on one of two shards) err = %v, want ErrCorrupt", err)
	}
}

// relaid lays sh's sections that keep admits out again as a frame of
// their own, as a container writer that left the others out would.
func relaid(sh *shard, keep func(section) bool) *shard {
	out := &shard{}
	for _, sec := range sh.secs {
		if keep(sec) {
			off := len(out.frame)
			out.frame = append(out.frame, sh.frame[sec.off:sec.off+sec.len]...)
			out.secs = append(out.secs, section{kind: sec.kind, off: off, len: sec.len})
		}
	}
	return out
}

// widened returns a copy of sh whose sections of the given kind, a
// packed array laid out {n, width, word count, words…}, claim
// width-bit values.
func widened(sh *shard, kind, width uint64) *shard {
	out := relaid(sh, func(section) bool { return true })
	for _, sec := range out.secs {
		if sec.kind == kind {
			out.frame[sec.off+1] = width
		}
	}
	return out
}

// retagged returns data with TOC entry i's kind | encoding<<32 word
// set to tag.
func retagged(data []byte, i int, tag uint64) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[8*(headerWords+tocEntryWords*i):], tag)
	return out
}

// containerOf writes shards' frames as Save lays out a container.
func containerOf(t testing.TB, shards ...*shard) []byte {
	t.Helper()
	return saveV3Bytes(t, &Index{shards: shards})
}

// mixedTimestamps writes a two-shard temporal index of trajs with the
// timestamp section of its second shard left out.
func mixedTimestamps(t testing.TB, trajs [][]uint32, times [][]int64) []byte {
	t.Helper()
	opts := DefaultOptions()
	opts.Shards = 2
	tix, err := BuildTemporal(trajs, times, opts)
	if err != nil {
		t.Fatal(err)
	}
	spatial := relaid(tix.shards[1], func(s section) bool { return s.kind != kindTimes })
	return containerOf(t, tix.shards[0], spatial)
}

// TestContainerRefusesMalformedSections pins the TOC rules: an unknown
// (kind, encoding) is ErrLegacyFormat naming both, and a shard missing
// a required section, a locate section without a sample rate, or
// sections out of kind order are ErrCorrupt.
func TestContainerRefusesMalformedSections(t *testing.T) {
	trajs, times := timedCorpus(7)
	ix, err := Build(trajs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sh := ix.shards[0]
	data := containerOf(t, sh)
	for _, tc := range []struct {
		name string
		data []byte
		want error
		msg  string
	}{
		{"unknown encoding", retagged(data, 7, 2<<32|kindSA), ErrLegacyFormat, "kind 8, encoding 2"},
		{"retired encoding", retagged(data, 5, 1<<32|kindWT), ErrLegacyFormat, "kind 6, encoding 1"},
		{"unknown kind", retagged(data, len(sh.secs)-1, 1<<32|numKinds), ErrLegacyFormat, "kind 11, encoding 1"},
		{"no C section", containerOf(t, relaid(sh, func(s section) bool { return s.kind != kindC })), ErrCorrupt, "C array"},
		{"no trajectory tables", containerOf(t, relaid(sh, func(s section) bool { return s.kind != kindTables })), ErrCorrupt, "trajectory tables"},
		{"no SA samples", containerOf(t, relaid(sh, func(s section) bool { return s.kind != kindSA })), ErrCorrupt, "locate sections"},
		{"kinds out of order", retagged(retagged(data, 5, kindEncoding[kindMark]<<32|kindMark), 6, kindEncoding[kindWT]<<32|kindWT), ErrCorrupt, "reorders kind 6"},
		{"mixed timestamps", mixedTimestamps(t, trajs, times), ErrCorrupt, "timestamps"},
	} {
		_, errLoad := Load(bytes.NewReader(tc.data))
		_, errMap := OpenMapped(writeTemp(t, tc.data))
		for _, err := range []error{errLoad, errMap} {
			if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), tc.msg) {
				t.Errorf("%s: err = %v, want %v naming %q", tc.name, err, tc.want, tc.msg)
			}
		}
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
					// A flip in a TOC entry's kind or encoding names a
					// section this build does not know.
					if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrLegacyFormat) {
						t.Fatalf("offset %d bit %d: untyped error %v", off, bit, err)
					}
					return
				}
				// Loaded despite the flip: queries must answer or
				// fail as corrupt (or, where a flipped table moved a
				// trajectory's bounds, out of range), not crash.
				typed := func(what string, err error) {
					if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("offset %d bit %d: %s: untyped error %v", off, bit, what, err)
					}
				}
				r, err := got.Search(context.Background(),
					Query{Path: pat, Kind: Occurrences, Interval: &Interval{From: 0, To: 1 << 62}})
				typed("Search", err)
				if err == nil {
					for _, herr := range r.All() {
						if herr != nil {
							typed("Search stream", herr)
							break
						}
					}
				}
				_, err = got.Index.SubPath(0, 0, got.Index.TrajectoryLen(0))
				typed("SubPath", err)
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
	// Version 5 is read and versions up to 4 refused as legacy (see
	// TestLegacyFormatRefused); a later version word is corruption.
	trajs, _ := timedCorpus(7)
	ix, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := saveV3Bytes(t, ix)
	for version, want := range map[uint64]error{0: ErrLegacyFormat, 2: ErrLegacyFormat, 6: ErrCorrupt, 1 << 40: ErrCorrupt} {
		binary.LittleEndian.PutUint64(data[8:], version)
		path := filepath.Join(dir, fmt.Sprintf("version%d", version))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMapped(path); !errors.Is(err, want) {
			t.Fatalf("OpenMapped(version %d) err = %v, want %v", version, err, want)
		}
	}
}

// craftedV3Header builds a one-page file carrying an otherwise valid
// header with the given counts — no TOC, no sections.
func craftedV3Header(shardCount, nSec uint64) []byte {
	b := make([]byte, v3PageSize)
	for i, w := range []uint64{v3MagicWord, v3Version, shardCount, nSec, v3PageSize} {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	return b
}

// TestV3HeaderCountOverflow pins the open-boundary guard against
// headers whose counts would size a huge slice or wrap the TOC's
// extent: the loaders must return ErrCorrupt, not panic.
func TestV3HeaderCountOverflow(t *testing.T) {
	cases := []struct {
		name         string
		shards, nSec uint64
	}{
		{"wrapping shard count", ^uint64(0), 1},
		{"huge section count", 1, ^uint64(0)},
		{"no shards", 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := craftedV3Header(tc.shards, tc.nSec)
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
