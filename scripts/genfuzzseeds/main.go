// Command genfuzzseeds regenerates the committed fuzz seed corpora
// under testdata/fuzz/ and server/testdata/fuzz/: valid containers
// (monolithic, sharded, temporal, trees mixing plain and RRR nodes),
// version-3 and -4 containers and version-5 ones with the retired
// kind 6 encoding, truncations, a locate header that lies
// about its width, bare magics, genuine cursors and representative query
// bodies — the structured starting points that let short CI fuzz runs
// reach deep parser states immediately. The FuzzLoadSharded and
// FuzzLoadTemporal seeds, and their copies under internal/legacy's
// FuzzDecode corpus, are frozen pre-v3 files it does not touch. CI
// reruns it and fails if the committed seeds differ from what it
// writes. Run from the repo root:
//
//	go run ./scripts/genfuzzseeds
package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"cinct"
	"cinct/internal/roadnet"
	"cinct/internal/trajgen"
	"cinct/internal/wal"
)

// corpus mirrors fuzzCorpus in fuzz_test.go.
func corpus() ([][]uint32, [][]int64) {
	trajs := [][]uint32{
		{1, 2, 3, 4},
		{2, 3, 4},
		{5, 1, 2, 3},
		{3, 4, 5, 1, 2},
		{9},
		{2, 3},
	}
	return trajs, timesFor(trajs)
}

// mixedNodeCorpus mirrors mixedNodeCorpus in fuzz_test.go: a corpus
// whose wavelet tree mixes plain and RRR nodes.
func mixedNodeCorpus() ([][]uint32, [][]int64) {
	trajs := trajgen.Singapore2(trajgen.Config{GridW: 3, GridH: 3, NumTrajs: 100, MeanLen: 40, Seed: 7}).Trajs
	return trajs, timesFor(trajs)
}

// timesFor mirrors fuzzTimes in fuzz_test.go.
func timesFor(trajs [][]uint32) [][]int64 {
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

// widenSASamples returns a copy of a one-shard spatial container over
// corpus() whose SA sample array claims 40-bit values. Its one sample
// still fits its one word, so the array's shape is consistent and only
// the width bound (bits.Len(n/rate) for SA/rate values) rejects it.
func widenSASamples(file []byte) []byte {
	out := append([]byte(nil), file...)
	word := func(k int) uint64 { return binary.LittleEndian.Uint64(out[8*k:]) }
	// The header is 5 words, then TOC entries {kind | encoding<<32,
	// shard, offset, length}; entry 7 is the SA samples (kind 8), laid
	// out {n, width, word count, words…}.
	e := 5 + 4*7
	sa := int(word(e+2)) / 8
	if word(e) != 1<<32|8 || word(e+3) != 4*8 || word(sa) != 1 || word(sa+2) != 1 {
		log.Fatal("genfuzzseeds: TOC entry 7 is not an SA samples section of one sample")
	}
	binary.LittleEndian.PutUint64(out[8*(sa+1):], 40)
	return out
}

func writeSeed(dir, name string, data []byte) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Fatal(err)
	}
	body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d input bytes)\n", filepath.Join(dir, name), len(data))
}

func main() {
	trajs, times := corpus()

	// FuzzLoadSharded, FuzzLoadTemporal and FuzzDecode keep their
	// committed seeds as frozen fixtures: they are files in the pre-v3
	// stream formats nothing writes any more (Save writes v3, seeded in
	// code and under FuzzLoadMapped).

	// FuzzCursor: genuine resume tokens (selector byte + token) and junk.
	dir := filepath.Join("testdata", "fuzz", "FuzzCursor")
	tix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	queries := []cinct.Query{
		{Path: []uint32{2, 3}, Kind: cinct.Occurrences, Limit: 1},
		{Path: []uint32{2, 3}, Kind: cinct.Trajectories, Limit: 1,
			Interval: &cinct.Interval{From: 0, To: 1 << 40}},
	}
	for i, q := range queries {
		r, err := tix.Search(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		for _, herr := range r.All() {
			if herr != nil {
				log.Fatal(herr)
			}
			break
		}
		writeSeed(dir, fmt.Sprintf("valid-cursor%d", i), []byte("\x00"+r.Cursor()))
	}
	writeSeed(dir, "garbage", []byte("\x01garbage-token"))
	writeSeed(dir, "empty-token", []byte{0x02})

	// FuzzLoadMapped: zero-copy containers (spatial and temporal,
	// container version 5), truncations, a width-lying locate header,
	// version-3 and version-4 files, bare magic.
	dir = filepath.Join("testdata", "fuzz", "FuzzLoadMapped")
	for _, shards := range []int{1, 2} {
		opts := cinct.DefaultOptions()
		opts.Shards = shards
		ix, err := cinct.Build(trajs, opts)
		if err != nil {
			log.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.Save(&buf); err != nil {
			log.Fatal(err)
		}
		writeSeed(dir, fmt.Sprintf("v3-spatial-shards%d", shards), buf.Bytes())
		writeSeed(dir, fmt.Sprintf("v3-truncated-shards%d", shards), buf.Bytes()[:buf.Len()/2])
		if shards == 1 {
			writeSeed(dir, "v3-wide-sa-samples", widenSASamples(buf.Bytes()))
		}
		tix, err := cinct.BuildTemporal(trajs, times, opts)
		if err != nil {
			log.Fatal(err)
		}
		buf.Reset()
		if _, err := tix.Save(&buf); err != nil {
			log.Fatal(err)
		}
		writeSeed(dir, fmt.Sprintf("v3-temporal-shards%d", shards), buf.Bytes())
	}
	mtrajs, mtimes := mixedNodeCorpus()
	mix, err := cinct.Build(mtrajs, nil)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := mix.Save(&buf); err != nil {
		log.Fatal(err)
	}
	writeSeed(dir, "v3-mixed-nodes-spatial", buf.Bytes())
	tmix, err := cinct.BuildTemporal(mtrajs, mtimes, nil)
	if err != nil {
		log.Fatal(err)
	}
	buf.Reset()
	if _, err := tmix.Save(&buf); err != nil {
		log.Fatal(err)
	}
	writeSeed(dir, "v3-mixed-nodes-temporal", buf.Bytes())
	writeSeed(dir, "magic-only", []byte("CNCTidx3"))

	// Version-3 and -4 containers, and version-5 ones with kind 6
	// encoding 1, which the readers refuse and convert decodes.
	version3 := func(file string) []byte {
		data, err := os.ReadFile(filepath.Join("testdata", "legacy", file))
		if err != nil {
			log.Fatal(err)
		}
		return data
	}
	decodeDir := filepath.Join("internal", "legacy", "testdata", "fuzz", "FuzzDecode")
	writeSeed(dir, "v3-version3-int32-samples", version3("v3-int32-spatial-1.cinct"))
	writeSeed(decodeDir, "v3-version3-int32-samples", version3("v3-int32-spatial-1.cinct"))
	writeSeed(decodeDir, "v3-int32-temporal-4.tcinct", version3("v3-int32-temporal-4.tcinct"))
	writeSeed(dir, "v4-spatial-4", version3("v4-spatial-4.cinct"))
	writeSeed(decodeDir, "v4-temporal-4.tcinct", version3("v4-temporal-4.tcinct"))
	writeSeed(dir, "v5-wt1-spatial-4", version3("v5-spatial-4.cinct"))
	writeSeed(decodeDir, "v5-temporal-4.tcinct", version3("v5-temporal-4.tcinct"))

	// FuzzWALReplay: a genuine two-batch segment (spatial + temporal
	// rows), its torn-tail truncation, a bit-flipped-CRC variant, and
	// the bare magic. The segment bytes come from the real writer: a
	// throwaway log in a temp dir.
	dir = filepath.Join("internal", "wal", "testdata", "fuzz", "FuzzWALReplay")
	tmp, err := os.MkdirTemp("", "walseed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	wlog, err := wal.Open(tmp, wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	walBatches := []wal.Batch{
		{FirstID: 0, Trajs: [][]uint32{{1, 2, 3}, {4, 5}}},
		{FirstID: 2, Trajs: [][]uint32{{7, 8, 9}}, Times: [][]int64{{100, 90, 250}}},
	}
	for _, b := range walBatches {
		if err := wlog.Append(b); err != nil {
			log.Fatal(err)
		}
	}
	if err := wlog.Close(); err != nil {
		log.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(tmp, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		log.Fatalf("expected one WAL segment, got %v (%v)", segs, err)
	}
	seg, err := os.ReadFile(segs[0])
	if err != nil {
		log.Fatal(err)
	}
	writeSeed(dir, "valid-segment", seg)
	writeSeed(dir, "truncated-tail", seg[:len(seg)-3])
	flipped := append([]byte(nil), seg...)
	flipped[8+5] ^= 0x01 // inside the first record's CRC field
	writeSeed(dir, "bitflipped-crc", flipped)
	writeSeed(dir, "magic-only", []byte("CNCTwal1"))

	// FuzzQueryUnmarshal: representative wire bodies.
	dir = filepath.Join("server", "testdata", "fuzz", "FuzzQueryUnmarshal")
	for i, body := range []string{
		`{"path":[1,2,3]}`,
		`{"path":[1],"kind":"count","limit":10}`,
		`{"path":[2,3],"kind":"trajectories","from":0,"to":999,"cursor":"AQ"}`,
		`{"path":[4294967295],"limit":-1}`,
		`{"kind":"nosuch"}`,
		`{`,
		`{"path":[1,2],"limt":10}`,
		`{"path":[1,2]}{"path":[3]}`,
	} {
		writeSeed(dir, fmt.Sprintf("seed%d", i), []byte(body))
	}

	// FuzzLoadRoadnet: a genuine CNCTroad container, its truncation, a
	// count-corrupted variant and the bare magic.
	dir = filepath.Join("internal", "roadnet", "testdata", "fuzz", "FuzzLoadRoadnet")
	var road bytes.Buffer
	if err := roadnet.Grid(4, 3, 2).Save(&road); err != nil {
		log.Fatal(err)
	}
	writeSeed(dir, "valid-grid", road.Bytes())
	writeSeed(dir, "truncated", road.Bytes()[:road.Len()/2])
	overcount := append([]byte(nil), road.Bytes()...)
	overcount[16] = 0xFF // inflate the edge count past the body
	writeSeed(dir, "overcount-edges", overcount)
	writeSeed(dir, "magic-only", []byte("CNCTroad"))
}
