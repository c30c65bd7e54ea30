package cinct

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"cinct/internal/trajgen"
)

// The fuzz fortress pins the container-format and cursor surfaces:
// arbitrary bytes fed to Load / LoadTemporal / OpenMapped /
// Query.Cursor must never panic and never allocate unboundedly — they
// either produce a working index or fail with a typed error. Seed
// corpora live under testdata/fuzz/ (regenerate with
// scripts/genfuzzseeds; the committed FuzzLoadSharded and
// FuzzLoadTemporal ones are frozen pre-v3 files, which the readers must
// refuse, and internal/legacy's FuzzDecode decodes).

// maxFuzzInput bounds one fuzz input; larger blobs only slow
// exploration down without reaching new code.
const maxFuzzInput = 1 << 18

// fuzzCorpus is the deterministic corpus behind every generated seed
// and the FuzzCursor search target.
func fuzzCorpus() ([][]uint32, [][]int64) {
	trajs := [][]uint32{
		{1, 2, 3, 4},
		{2, 3, 4},
		{5, 1, 2, 3},
		{3, 4, 5, 1, 2},
		{9},
		{2, 3},
	}
	return trajs, fuzzTimes(trajs)
}

// mixedNodeCorpus is a small generated corpus whose wavelet tree keeps
// one node RRR beside plain ones (1 of 19), so the mapped-container
// seeds cover both vector kinds in one tree. fuzzCorpus's tree is all
// plain: every node is too small for RRR to pay for its header.
func mixedNodeCorpus() ([][]uint32, [][]int64) {
	trajs := trajgen.Singapore2(trajgen.Config{GridW: 3, GridH: 3, NumTrajs: 100, MeanLen: 40, Seed: 7}).Trajs
	return trajs, fuzzTimes(trajs)
}

func fuzzTimes(trajs [][]uint32) [][]int64 {
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		for i := range col {
			col[i] = int64(100*k + 10*i)
		}
		times[k] = col
	}
	return times
}

// TestMixedNodeCorpusMixesKinds guards mixedNodeCorpus's purpose: its
// default build must keep at least one RRR node, or its wavelet tree
// would size exactly like the all-plain build's.
func TestMixedNodeCorpusMixesKinds(t *testing.T) {
	trajs, _ := mixedNodeCorpus()
	mixed, err := Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(trajs, &Options{Uncompressed: true, SampleRate: 64})
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Stats().WaveletBits == plain.Stats().WaveletBits {
		t.Fatal("mixedNodeCorpus builds an all-plain wavelet tree")
	}
}

// exerciseLoaded pokes a successfully loaded index: the metadata and
// query surface must hold up whatever bytes produced it.
func exerciseLoaded(t *testing.T, ix *Index) {
	t.Helper()
	_ = ix.NumTrajectories()
	_ = ix.NumEdges()
	_ = ix.Len()
	_ = ix.Shards()
	_ = ix.Stats()
	_ = ix.Count([]uint32{1, 2})
	if ix.NumTrajectories() > 0 {
		_ = ix.TrajectoryLen(0)
	}
	r, err := ix.Search(context.Background(), Query{Path: []uint32{2, 3}, Kind: Occurrences, Limit: 4})
	if err != nil {
		if !errors.Is(err, ErrNoLocate) {
			t.Fatalf("Search on loaded index: unexpected error %v", err)
		}
		return
	}
	for _, herr := range r.All() {
		if herr != nil {
			t.Fatalf("stream on loaded index: %v", herr)
		}
	}
}

// checkLoadErr requires a reader's error to be typed, and to be
// ErrLegacyFormat exactly when the input starts with a pre-v3 magic.
func checkLoadErr(t *testing.T, data []byte, err error) {
	t.Helper()
	if legacy := checkLegacy(data) != nil; legacy != errors.Is(err, ErrLegacyFormat) {
		t.Fatalf("pre-v3 magic %v, error %v", legacy, err)
	}
	for _, typed := range []error{ErrLegacyFormat, ErrCorrupt, ErrNoTimestamps} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("untyped error %v", err)
}

// FuzzLoadSharded pins Load: arbitrary bytes must load or fail typed —
// never panic, never allocate past a small multiple of the input — and
// a pre-v3 file is refused whatever follows its magic. The in-code
// seeds are v3 containers of one and three shards as Save writes them;
// the committed ones are pre-v3 single-index and CNCTshrd files.
func FuzzLoadSharded(f *testing.F) {
	trajs, _ := fuzzCorpus()
	for _, shards := range []int{1, 3} {
		opts := DefaultOptions()
		opts.Shards = shards
		ix, err := Build(trajs, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(append([]byte(nil), full...))
		f.Add(append([]byte(nil), full[:len(full)/2]...)) // truncation
	}
	f.Add([]byte("CNCTshrd"))
	f.Add([]byte("CNCTshrd\x01\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			t.Skip()
		}
		ix, err := Load(bytes.NewReader(data))
		if err != nil {
			checkLoadErr(t, data, err)
			return
		}
		exerciseLoaded(t, ix)
	})
}

// FuzzLoadTemporal pins LoadTemporal likewise: in-code seeds are v3
// temporal containers, committed ones pre-v3 CNCTtemp files.
func FuzzLoadTemporal(f *testing.F) {
	trajs, times := fuzzCorpus()
	for _, shards := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Shards = shards
		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(append([]byte(nil), full...))
		f.Add(append([]byte(nil), full[:2*len(full)/3]...))
	}
	f.Add([]byte("CNCTtemp"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			t.Skip()
		}
		tix, err := LoadTemporal(bytes.NewReader(data))
		if err != nil {
			checkLoadErr(t, data, err)
			return
		}
		exerciseLoaded(t, tix.Index)
		if tix.NumTrajectories() > 0 {
			_ = tix.Timestamps(0)
		}
		if _, err := searchCount(tix, Query{Path: []uint32{2, 3}, Interval: &Interval{From: 0, To: 1 << 40}, Kind: CountOnly}); err != nil && !errors.Is(err, ErrNoLocate) {
			t.Fatalf("CountInInterval on loaded index: %v", err)
		}
	})
}

// FuzzCursor pins the cursor surface: any token string handed to
// Search either resumes a stream or fails with ErrBadCursor — no
// panics, no silently wrong pages. The first input byte selects the
// query shape so foreign-shape tokens are exercised too.
func FuzzCursor(f *testing.F) {
	trajs, times := fuzzCorpus()
	tix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		f.Fatal(err)
	}
	ctx := context.Background()
	// Seed with genuine cursors from bounded searches of both shapes.
	for _, q := range []Query{
		{Path: []uint32{2, 3}, Kind: Occurrences, Limit: 1},
		{Path: []uint32{2, 3}, Kind: Trajectories, Limit: 1, Interval: &Interval{From: 0, To: 1 << 40}},
	} {
		r, err := tix.Search(ctx, q)
		if err != nil {
			f.Fatal(err)
		}
		for _, herr := range r.All() {
			if herr != nil {
				f.Fatal(herr)
			}
			break
		}
		f.Add([]byte("\x00" + r.Cursor()))
	}
	f.Add([]byte("\x01garbage-token"))
	f.Add([]byte{0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > maxFuzzInput {
			t.Skip()
		}
		sel, token := data[0], string(data[1:])
		q := Query{Path: []uint32{2, 3}, Kind: Kind(sel % 3), Limit: int(sel>>2) % 8, Cursor: token}
		if sel&1 != 0 {
			q.Interval = &Interval{From: 0, To: 1 << 40}
		}
		r, err := tix.Search(ctx, q)
		if err != nil {
			if !errors.Is(err, ErrBadCursor) {
				t.Fatalf("Search(cursor=%q): err = %v, want ErrBadCursor", token, err)
			}
			return
		}
		last := Match{Trajectory: -1, Offset: -1}
		for h, herr := range r.All() {
			if herr != nil {
				t.Fatalf("stream: %v", herr)
			}
			if q.Kind != Trajectories && !matchLess(last, h.Match) {
				t.Fatalf("resumed stream out of canonical order: %v then %v", last, h.Match)
			}
			last = h.Match
		}
	})
}

// FuzzLoadMapped pins the v3 zero-copy open path: arbitrary bytes
// mapped as a container must open or fail typed — never panic, never
// fault past the mapping. A successfully opened index is
// queried; with the structural invariants validated at open, residual
// semantic corruption must surface as a typed error from the search
// layer, not a crash.
func FuzzLoadMapped(f *testing.F) {
	trajs, times := fuzzCorpus()
	for _, shards := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Shards = shards
		ix, err := Build(trajs, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		full := buf.Bytes()
		f.Add(append([]byte(nil), full...))
		f.Add(append([]byte(nil), full[:len(full)/2]...)) // truncation

		tix, err := BuildTemporal(trajs, times, opts)
		if err != nil {
			f.Fatal(err)
		}
		buf.Reset()
		if _, err := tix.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	// A tree mixing plain and RRR nodes, spatial and temporal.
	trajs, times = mixedNodeCorpus()
	ix, err := Build(trajs, nil)
	if err != nil {
		f.Fatal(err)
	}
	tix, err := BuildTemporal(trajs, times, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, save := range []func(io.Writer) (int64, error){ix.Save, tix.Save} {
		var buf bytes.Buffer
		if _, err := save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(v3Magic))
	// Header whose shard+store counts wrap uint64 (regression: the sum
	// used to be computed before the counts were bounded, panicking in
	// makeslice instead of returning ErrCorrupt).
	f.Add(craftedV3Header(v3FlavorTemporal, 0, ^uint64(0), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxFuzzInput {
			t.Skip()
		}
		path := filepath.Join(t.TempDir(), "fuzz.cinct3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ix, err := OpenMapped(path); err == nil {
			exerciseMapped(t, ix, nil)
		} else {
			checkLoadErr(t, data, err)
		}
		if tix, err := OpenMappedTemporal(path); err == nil {
			exerciseMapped(t, tix.Index, tix)
		} else {
			checkLoadErr(t, data, err)
		}
	})
}

// exerciseMapped pokes a successfully mapped index. Unlike
// exerciseLoaded it tolerates typed corruption errors during queries:
// the open path validates structure, not the O(n) semantic
// invariants, so a corrupt-but-well-shaped container may first fail
// inside a search. What it must never do is panic.
func exerciseMapped(t *testing.T, ix *Index, tix *TemporalIndex) {
	t.Helper()
	_ = ix.NumTrajectories()
	_ = ix.Len()
	_ = ix.Count([]uint32{2, 3})
	q := Query{Path: []uint32{2, 3}, Kind: Occurrences, Limit: 4}
	if tix != nil {
		q.Interval = &Interval{From: 0, To: 1 << 40}
	}
	var r *Results
	var err error
	if tix != nil {
		r, err = tix.Search(context.Background(), q)
	} else {
		r, err = ix.Search(context.Background(), q)
	}
	if err != nil {
		if errors.Is(err, ErrNoLocate) || errors.Is(err, ErrCorruptIndex) {
			return
		}
		t.Fatalf("Search on mapped index: unexpected error %v", err)
	}
	for _, herr := range r.All() {
		if herr != nil {
			if errors.Is(herr, ErrCorruptIndex) {
				return
			}
			t.Fatalf("stream on mapped index: %v", herr)
		}
	}
	if ix.NumTrajectories() > 0 {
		_, _ = ix.SubPath(0, 0, ix.TrajectoryLen(0))
	}
}
