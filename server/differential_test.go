package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/querygen"
	"cinct/internal/trajgen"
)

// corpusFixture builds a corpus with timestamps and persists four
// index flavors into dir: spatial and temporal, each monolithic and
// sharded.
type corpusFixture struct {
	trajs [][]uint32
	times [][]int64
	// names of the indexes written, keyed spatial/temporal.
	spatial  []string
	temporal []string
}

func writeFixture(t *testing.T, dir string) *corpusFixture {
	t.Helper()
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 160, MeanLen: 15, Seed: 11}
	fx := &corpusFixture{trajs: trajgen.Singapore2(cfg).Trajs}
	fx.times = make([][]int64, len(fx.trajs))
	for k, tr := range fx.trajs {
		col := make([]int64, len(tr))
		at := int64(100 * k)
		for i := range col {
			col[i] = at
			at += int64(5 + (k+i)%20)
		}
		fx.times[k] = col
	}
	for _, shards := range []int{1, 4} {
		opts := cinct.DefaultOptions()
		opts.Shards = shards

		name := fmt.Sprintf("spatial%d", shards)
		ix, err := cinct.Build(fx.trajs, opts)
		if err != nil {
			t.Fatal(err)
		}
		writeIndexFile(t, filepath.Join(dir, name+engine.ExtSpatial), ix.Save)
		fx.spatial = append(fx.spatial, name)

		tname := fmt.Sprintf("temporal%d", shards)
		tix, err := cinct.BuildTemporal(fx.trajs, fx.times, opts)
		if err != nil {
			t.Fatal(err)
		}
		writeIndexFile(t, filepath.Join(dir, tname+engine.ExtTemporal), tix.Save)
		fx.temporal = append(fx.temporal, tname)
	}
	return fx
}

func writeIndexFile(t *testing.T, path string, save func(io.Writer) (int64, error)) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// get fetches a URL and returns status and raw body bytes.
func get(t *testing.T, base, path string, q url.Values) (int, []byte) {
	t.Helper()
	u := base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// expect encodes v canonically and compares byte-for-byte.
func expect(t *testing.T, label string, status int, body []byte, wantStatus int, v any) {
	t.Helper()
	if status != wantStatus {
		t.Fatalf("%s: HTTP %d (want %d): %s", label, status, wantStatus, body)
	}
	want, err := EncodeJSON(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("%s: body differs from in-process engine call\n got: %s\nwant: %s", label, body, want)
	}
}

// TestDifferentialHTTP is the serving-layer acceptance test for
// everything beside POST /query (which TestQueryEndpointDifferential
// pins): every extraction and catalog body must be byte-identical to the
// canonical encoding of the equivalent in-process Engine call, over
// spatial and temporal, monolithic and sharded indexes.
func TestDifferentialHTTP(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)

	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()

	queries := querygen.New(fx.trajs, 1, 4, 7).Draw(12)
	queries = append(queries, []uint32{1 << 30}) // matches nothing

	for _, name := range append(append([]string{}, fx.spatial...), fx.temporal...) {
		for _, id := range []int{0, 1, len(fx.trajs) / 2, len(fx.trajs) - 1} {
			edges, err := eng.Trajectory(ctx, name, id)
			if err != nil {
				t.Fatal(err)
			}
			status, body := get(t, ts.URL, "/v1/"+name+"/trajectory/"+strconv.Itoa(id), nil)
			expect(t, fmt.Sprintf("%s trajectory %d", name, id), status, body, 200,
				TrajectoryResponse{Index: name, ID: id, Edges: WireEdges(edges)})

			ln := len(fx.trajs[id])
			from, to := ln/3, ln-ln/4
			sub, err := eng.SubPath(ctx, name, id, from, to)
			if err != nil {
				t.Fatal(err)
			}
			sq := url.Values{
				"traj": {strconv.Itoa(id)},
				"from": {strconv.Itoa(from)},
				"to":   {strconv.Itoa(to)},
			}
			status, body = get(t, ts.URL, "/v1/"+name+"/subpath", sq)
			expect(t, fmt.Sprintf("%s subpath %d [%d,%d)", name, id, from, to), status, body, 200,
				SubPathResponse{Index: name, ID: id, From: from, To: to, Edges: WireEdges(sub)})
		}
	}

	// The fixture's timestamps span [0, ~20000), so the intervals cover
	// all-time, selective slices, and empty ranges.
	intervals := [][2]int64{
		{math.MinInt64, math.MaxInt64},
		{0, 4000},
		{2500, 2600},
		{19000, 30000},
		{-100, -1},
	}

	// Monolithic and sharded temporal indexes over the same corpus must
	// give byte-identical answers (modulo the index name on the wire).
	for qi, path := range queries {
		for ii, iv := range intervals {
			in := &cinct.Interval{From: iv[0], To: iv[1]}
			for _, limit := range []int{0, 2} {
				q := cinct.Query{Path: path, Interval: in, Limit: limit}
				mono, _, _ := wireFromEngine(t, eng, fx.temporal[0], q)
				shrd, _, _ := wireFromEngine(t, eng, fx.temporal[1], q)
				monoWire, err := EncodeJSON(mono)
				if err != nil {
					t.Fatal(err)
				}
				shrdWire, err := EncodeJSON(shrd)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(monoWire, shrdWire) {
					t.Fatalf("q%d iv%d limit %d: sharded temporal differs from monolithic\n mono: %s\nshard: %s",
						qi, ii, limit, monoWire, shrdWire)
				}
			}
			q := cinct.Query{Path: path, Interval: in, Kind: cinct.CountOnly}
			_, monoN, _ := wireFromEngine(t, eng, fx.temporal[0], q)
			_, shrdN, _ := wireFromEngine(t, eng, fx.temporal[1], q)
			if monoN != shrdN {
				t.Fatalf("q%d iv%d: sharded temporal count %d, monolithic %d", qi, ii, shrdN, monoN)
			}
		}
	}

	// Catalog listing vs in-process listing (runtime gauges included:
	// no query runs between here and the GET, so the counters agree).
	list := ListResponse{Indexes: make([]engine.Info, 0)}
	for _, name := range eng.Names() {
		info, err := eng.Info(name)
		if err != nil {
			t.Fatal(err)
		}
		list.Indexes = append(list.Indexes, info)
	}
	hits, misses, entries := eng.CacheStats()
	inflight, capacity := eng.PoolStats()
	segs, walBytes, fsyncs := eng.WALStats()
	list.Runtime = RuntimeInfo{
		CacheHits: int64(hits), CacheMisses: int64(misses), CacheEntries: entries,
		PoolInflight: inflight, PoolCapacity: capacity,
		WALSegments: segs, WALBytes: walBytes, WALFsyncs: fsyncs,
	}
	status, body := get(t, ts.URL, "/v1/indexes", nil)
	expect(t, "indexes", status, body, 200, list)

	// Differential over the Client as well: the -remote CLI path must
	// see the same answers as in-process calls.
	cl := NewClient(ts.URL, nil)
	for _, name := range fx.temporal {
		path := queries[0]
		allTime := &cinct.Interval{From: math.MinInt64, To: math.MaxInt64}
		for _, q := range []cinct.Query{
			{Path: path, Kind: cinct.CountOnly},
			{Path: path, Limit: 5},
			{Path: path, Interval: allTime, Limit: 3},
			{Path: path, Interval: &cinct.Interval{From: 0, To: 4000}, Kind: cinct.CountOnly},
		} {
			wantHits, wantN, wantCursor := wireFromEngine(t, eng, name, q)
			page, err := cl.SearchPage(ctx, name, q)
			if err != nil {
				t.Fatal(err)
			}
			if page.Count != wantN || page.Cursor != wantCursor {
				t.Fatalf("client %+v: (count, cursor) = (%d, %q), want (%d, %q)", q, page.Count, page.Cursor, wantN, wantCursor)
			}
			if len(page.Hits) != len(wantHits) {
				t.Fatalf("client %+v: %d hits, want %d", q, len(page.Hits), len(wantHits))
			}
			for i, h := range page.Hits {
				w := wantHits[i]
				if h.Trajectory != w.Trajectory || h.Offset != w.Offset || (w.EnteredAt != nil && h.EnteredAt != *w.EnteredAt) {
					t.Fatalf("client %+v: hit %d = %+v, want %+v", q, i, h, w)
				}
			}
		}
	}

	// Error mapping.
	status, _ = get(t, ts.URL, "/v1/nosuch/trajectory/0", nil)
	if status != http.StatusNotFound {
		t.Fatalf("unknown index: HTTP %d, want 404", status)
	}
	status, _ = get(t, ts.URL, "/v1/"+fx.spatial[0]+"/trajectory/abc", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("bad trajectory id: HTTP %d, want 400", status)
	}
	status, _ = get(t, ts.URL, "/v1/"+fx.spatial[0]+"/trajectory/999999", nil)
	if status != http.StatusBadRequest {
		t.Fatalf("out-of-range trajectory: HTTP %d, want 400", status)
	}

	// Reload via HTTP bumps the generation.
	gen, err := cl.Reload(ctx, fx.spatial[0])
	if err != nil {
		t.Fatal(err)
	}
	if gen != 2 {
		t.Fatalf("generation after reload = %d, want 2", gen)
	}
}
