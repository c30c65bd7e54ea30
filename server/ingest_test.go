package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cinct"
	"cinct/internal/engine"
)

// TestIngestEndToEnd drives the HTTP write path: NDJSON ingest into
// spatial and temporal indexes, immediate visibility through the
// unified query endpoint, explicit and inline (?seal=true) sealing,
// and the client round trip.
func TestIngestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{SealThreshold: -1})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)

	marker := []uint32{401, 402}
	n0, err := remoteCount(ctx, c, "spatial4", marker)
	if err != nil {
		t.Fatal(err)
	}
	if n0 != 0 {
		t.Fatalf("marker pre-exists: %d", n0)
	}

	// Spatial ingest via the client, no seal.
	resp, err := c.Ingest(ctx, "spatial4", []IngestRecord{
		{Edges: append([]uint32{3}, marker...)},
		{Edges: marker},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Appended != 2 || resp.FirstID != len(fx.trajs) || resp.Delta != 2 || resp.Sealed != 0 {
		t.Fatalf("IngestResponse = %+v", resp)
	}
	n, err := remoteCount(ctx, c, "spatial4", marker)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("post-ingest count over HTTP = %d, want 2", n)
	}
	// Delta rows reconstruct over HTTP.
	tr, err := c.Trajectory(ctx, "spatial4", len(fx.trajs))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 3 || tr[1] != marker[0] {
		t.Fatalf("delta trajectory over HTTP = %v", tr)
	}

	// Explicit seal: counts unchanged, delta drained, file persisted.
	sres, err := c.Seal(ctx, "spatial4")
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sealed != 2 || sres.Delta != 0 {
		t.Fatalf("SealResponse = %+v", sres)
	}
	if n, err = remoteCount(ctx, c, "spatial4", marker); err != nil || n != 2 {
		t.Fatalf("post-seal count = %d, %v", n, err)
	}
	if _, err := c.Reload(ctx, "spatial4"); err != nil {
		t.Fatal(err)
	}
	if n, err = remoteCount(ctx, c, "spatial4", marker); err != nil || n != 2 {
		t.Fatalf("post-reload count = %d, %v (seal not persisted)", n, err)
	}

	// Temporal ingest with inline seal; interval filter must see the
	// new rows' timestamps.
	tresp, err := c.Ingest(ctx, "temporal4", []IngestRecord{
		{Edges: marker, Times: []int64{1_000_000, 1_000_005}},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if tresp.Appended != 1 || tresp.Sealed != 1 || tresp.Delta != 0 {
		t.Fatalf("temporal IngestResponse = %+v", tresp)
	}
	tpage, err := c.SearchPage(ctx, "temporal4", cinct.Query{
		Path: marker, Interval: &cinct.Interval{From: 999_999, To: 1_000_001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits := tpage.Hits; len(hits) != 1 || hits[0].Trajectory != len(fx.trajs) || hits[0].EnteredAt != 1_000_000 {
		t.Fatalf("interval search over ingested row = %+v", tpage.Hits)
	}

	// Wire-shape checks the client can't see: missing times on a
	// temporal index and malformed NDJSON are 400s.
	post := func(index, body, params string) int {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/"+index+"/ingest"+params, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		return res.StatusCode
	}
	if got := post("temporal4", `{"edges":[1,2]}`, ""); got != http.StatusBadRequest {
		t.Fatalf("missing times on temporal: HTTP %d, want 400", got)
	}
	if got := post("spatial4", `{"edges":[1],"times":[5]}`, ""); got != http.StatusBadRequest {
		t.Fatalf("times on spatial: HTTP %d, want 400", got)
	}
	if got := post("spatial4", `{not json`, ""); got != http.StatusBadRequest {
		t.Fatalf("malformed NDJSON: HTTP %d, want 400", got)
	}
	if got := post("spatial4", "", ""); got != http.StatusBadRequest {
		t.Fatalf("empty batch: HTTP %d, want 400", got)
	}
	if got := post("nosuch", `{"edges":[1]}`, ""); got != http.StatusNotFound {
		t.Fatalf("unknown index: HTTP %d, want 404", got)
	}
}

// TestIngestQueryParity pins that an ingested corpus answers the
// unified query endpoint identically to the in-process engine — the
// delta must be invisible at the wire level.
func TestIngestQueryParity(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{SealThreshold: -1})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)

	path := fx.trajs[0][:2]
	if _, err := c.Ingest(ctx, "spatial1", []IngestRecord{{Edges: append([]uint32(nil), path...)}}, false); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"occurrences", "trajectories", "count"} {
		req := QueryRequest{Path: path, Kind: kind, Limit: 4}
		q, err := req.Query()
		if err != nil {
			t.Fatal(err)
		}
		wantHits, wantCount, wantCursor := wireFromEngine(t, eng, "spatial1", q)
		status, raw := postQuery(t, ts.URL, "spatial1", req)
		if status != http.StatusOK {
			t.Fatalf("kind %s: HTTP %d", kind, status)
		}
		hits, sum := parseStream(t, raw)
		if len(hits) != len(wantHits) || sum.Count != wantCount || sum.Cursor != wantCursor {
			t.Fatalf("kind %s: wire (%d hits, count %d, cursor %q) != engine (%d, %d, %q)",
				kind, len(hits), sum.Count, sum.Cursor, len(wantHits), wantCount, wantCursor)
		}
		for i := range hits {
			if hits[i] != wantHits[i] {
				t.Fatalf("kind %s: hit %d = %+v, engine %+v", kind, i, hits[i], wantHits[i])
			}
		}
	}
}

// TestStaleCursorHTTP pins the wire mapping of the stale-cursor
// audit: a cursor served before a reload answers 410 Gone afterwards,
// with the typed error message intact.
func TestStaleCursorHTTP(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)

	path := fx.trajs[0][:2]
	page, err := c.SearchPage(ctx, "spatial4", cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if page.Cursor == "" {
		t.Skip("corpus gave a single-hit stream; no cursor to invalidate")
	}
	if _, err := c.Reload(ctx, "spatial4"); err != nil {
		t.Fatal(err)
	}
	status, raw := postQuery(t, ts.URL, "spatial4", QueryRequest{Path: path, Cursor: page.Cursor})
	if status != http.StatusGone {
		t.Fatalf("stale cursor: HTTP %d (%s), want 410", status, raw)
	}
	if !strings.Contains(string(raw), "stale cursor") {
		t.Fatalf("stale cursor body lacks typed message: %s", raw)
	}
}

// TestCompactEndpoint drives POST /v1/{index}/compact end to end: a
// run of sealed ingest batches fans the shard set out, a full
// compaction over HTTP merges it back to one shard without changing
// any answer, and a cursor taken before the compaction still resumes
// afterwards.
func TestCompactEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeFixture(t, dir)
	eng := engine.New(engine.Options{SealThreshold: -1})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)

	marker := []uint32{411, 412}
	for i := 0; i < 4; i++ {
		if _, err := c.Ingest(ctx, "spatial4", []IngestRecord{
			{Edges: append([]uint32{uint32(i)}, marker...)},
		}, true); err != nil {
			t.Fatal(err)
		}
	}
	nBefore, err := remoteCount(ctx, c, "spatial4", marker)
	if err != nil {
		t.Fatal(err)
	}
	if nBefore != 4 {
		t.Fatalf("pre-compaction marker count = %d, want 4", nBefore)
	}
	// A bounded page taken before the merge must resume after it.
	page, err := c.SearchPage(ctx, "spatial4", cinct.Query{Path: marker, Kind: cinct.Occurrences, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if page.Cursor == "" {
		t.Fatal("bounded page handed out no cursor")
	}

	resp, err := c.Compact(ctx, "spatial4", true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Index != "spatial4" || resp.Merged == 0 || resp.ShardsAfter != 1 {
		t.Fatalf("CompactResponse = %+v, want a merge down to 1 shard", resp)
	}
	if n, err := remoteCount(ctx, c, "spatial4", marker); err != nil || n != nBefore {
		t.Fatalf("post-compaction count = %d, %v (want %d)", n, err, nBefore)
	}
	rest, err := c.SearchPage(ctx, "spatial4", cinct.Query{Path: marker, Kind: cinct.Occurrences, Cursor: page.Cursor})
	if err != nil {
		t.Fatalf("cursor across compaction: %v", err)
	}
	if got := len(page.Hits) + len(rest.Hits); got != nBefore {
		t.Fatalf("page + resume = %d hits, want %d", got, nBefore)
	}

	// Idempotent: nothing left to merge.
	resp, err = c.Compact(ctx, "spatial4", true)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Merged != 0 {
		t.Fatalf("second compaction merged %d shards", resp.Merged)
	}

	// The tiered default (full=false) on an in-policy index is a no-op
	// at the wire level too.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/spatial4/compact", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("tiered compact: HTTP %d, want 200", res.StatusCode)
	}

	if _, err := c.Compact(ctx, "nosuch", true); err == nil {
		t.Fatal("compacting an unknown index succeeded")
	}
}
