package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/querygen"
)

// postQuery posts a QueryRequest and returns status and raw NDJSON
// body.
func postQuery(t *testing.T, base, index string, req QueryRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/"+index+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// parseStream decodes an NDJSON query response into hits + summary.
func parseStream(t *testing.T, raw []byte) ([]QueryHit, QuerySummary) {
	t.Helper()
	var hits []QueryHit
	var sum QuerySummary
	sawSummary := false
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		if sawSummary {
			t.Fatalf("record after summary: %s", line)
		}
		var probe map[string]json.RawMessage
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, ok := probe["done"]; ok {
			if err := json.Unmarshal(line, &sum); err != nil {
				t.Fatal(err)
			}
			sawSummary = true
			continue
		}
		var h QueryHit
		if err := json.Unmarshal(line, &h); err != nil {
			t.Fatal(err)
		}
		hits = append(hits, h)
	}
	if !sawSummary {
		t.Fatalf("stream has no summary record: %s", raw)
	}
	return hits, sum
}

// remoteCount answers a CountOnly query through the Client.
func remoteCount(ctx context.Context, c *Client, index string, path []uint32) (int, error) {
	page, err := c.SearchPage(ctx, index, cinct.Query{Path: path, Kind: cinct.CountOnly})
	if err != nil {
		return 0, err
	}
	return page.Count, nil
}

// wireFromEngine renders an engine Search the way the handler must.
func wireFromEngine(t *testing.T, eng *engine.Engine, name string, q cinct.Query) ([]QueryHit, int, string) {
	t.Helper()
	r, err := eng.Search(context.Background(), name, q)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var hits []QueryHit
	for h, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		rec := QueryHit{Trajectory: h.Trajectory, Offset: h.Offset}
		if q.Interval != nil {
			at := h.EnteredAt
			rec.EnteredAt = &at
		}
		hits = append(hits, rec)
	}
	n, err := r.Count()
	if err != nil {
		t.Fatal(err)
	}
	return hits, n, r.Cursor()
}

// TestQueryEndpointDifferential pins POST /v1/{index}/query against
// the in-process engine for every kind over spatial and temporal,
// monolithic and sharded indexes: the streamed records must be
// byte-identical to the canonical encoding of the in-process engine's
// answer.
func TestQueryEndpointDifferential(t *testing.T) {
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

	queries := querygen.New(fx.trajs, 1, 4, 3).Draw(10)
	queries = append(queries, []uint32{1 << 30})
	kinds := []string{"occurrences", "trajectories", "count"}
	limits := []int{0, 1, 3, 50}

	names := append(append([]string{}, fx.spatial...), fx.temporal...)
	for _, name := range names {
		for qi, path := range queries {
			for _, kind := range kinds {
				for _, limit := range limits {
					req := QueryRequest{Path: path, Kind: kind, Limit: limit}
					q, err := req.Query()
					if err != nil {
						t.Fatal(err)
					}
					wantHits, wantCount, wantCursor := wireFromEngine(t, eng, name, q)
					status, raw := postQuery(t, ts.URL, name, req)
					if status != 200 {
						t.Fatalf("%s %s q%d limit %d: HTTP %d: %s", name, kind, qi, limit, status, raw)
					}
					gotHits, sum := parseStream(t, raw)
					if !sum.Done || sum.Error != "" {
						t.Fatalf("%s %s q%d limit %d: bad summary %+v", name, kind, qi, limit, sum)
					}
					a, _ := json.Marshal(gotHits)
					b, _ := json.Marshal(wantHits)
					if !bytes.Equal(a, b) {
						t.Fatalf("%s %s q%d limit %d: hits differ\n got: %s\nwant: %s", name, kind, qi, limit, a, b)
					}
					if sum.Count != wantCount || sum.Cursor != wantCursor {
						t.Fatalf("%s %s q%d limit %d: summary (%d,%q), engine (%d,%q)",
							name, kind, qi, limit, sum.Count, sum.Cursor, wantCount, wantCursor)
					}
				}
			}
		}
	}

	// The Trajectories kind against the corpus itself: each distinct
	// trajectory holding the path once, ascending, offset -1.
	for _, name := range names {
		for qi, path := range queries {
			want := []int{}
			for _, m := range bruteOccurrences(fx.trajs, path) {
				if len(want) == 0 || want[len(want)-1] != m.Trajectory {
					want = append(want, m.Trajectory)
				}
			}
			for _, limit := range limits {
				want := want
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				_, raw := postQuery(t, ts.URL, name, QueryRequest{Path: path, Kind: "trajectories", Limit: limit})
				hits, _ := parseStream(t, raw)
				if len(hits) != len(want) {
					t.Fatalf("%s q%d limit %d: %d streamed trajectories, corpus %d",
						name, qi, limit, len(hits), len(want))
				}
				for i := range hits {
					if hits[i].Trajectory != want[i] || hits[i].Offset != -1 {
						t.Fatalf("%s q%d limit %d: streamed[%d] = %+v, corpus id %d",
							name, qi, limit, i, hits[i], want[i])
					}
				}
			}
		}
	}

	// Interval-constrained queries over the temporal indexes.
	intervals := [][2]int64{{math.MinInt64, math.MaxInt64}, {0, 4000}, {2500, 2600}, {19000, 30000}, {-100, -1}}
	for _, name := range fx.temporal {
		for qi, path := range queries {
			for ii, iv := range intervals {
				from, to := iv[0], iv[1]
				for _, kind := range kinds {
					for _, limit := range []int{0, 1, 3} {
						req := QueryRequest{Path: path, Kind: kind, From: &from, To: &to, Limit: limit}
						q, err := req.Query()
						if err != nil {
							t.Fatal(err)
						}
						wantHits, wantCount, wantCursor := wireFromEngine(t, eng, name, q)
						status, raw := postQuery(t, ts.URL, name, req)
						if status != 200 {
							t.Fatalf("%s %s q%d iv%d limit %d: HTTP %d: %s", name, kind, qi, ii, limit, status, raw)
						}
						gotHits, sum := parseStream(t, raw)
						a, _ := json.Marshal(gotHits)
						b, _ := json.Marshal(wantHits)
						if !bytes.Equal(a, b) || sum.Count != wantCount || sum.Cursor != wantCursor {
							t.Fatalf("%s %s q%d iv%d limit %d: stream differs from engine\n got: %s (%d,%q)\nwant: %s (%d,%q)",
								name, kind, qi, ii, limit, a, sum.Count, sum.Cursor, b, wantCount, wantCursor)
						}
					}
				}
			}
		}
	}

	// An interval query against a spatial index is 422.
	from := int64(0)
	status, _ := postQuery(t, ts.URL, fx.spatial[0], QueryRequest{Path: queries[0], From: &from})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("interval on spatial index: HTTP %d, want 422", status)
	}
}

// TestQueryEndpointCursorPagination walks cursor-linked pages at the
// raw HTTP level and through Client.Search, asserting the
// concatenation equals the unpaged stream.
func TestQueryEndpointCursorPagination(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()

	// A frequent path: first edges of trajectory 0.
	path := fx.trajs[0][:1]
	name := fx.temporal[1] // sharded temporal: the hardest layout
	_, raw := postQuery(t, ts.URL, name, QueryRequest{Path: path, Kind: "occurrences"})
	full, fullSum := parseStream(t, raw)
	if fullSum.Cursor != "" {
		t.Fatalf("unpaged stream ended with cursor %q", fullSum.Cursor)
	}
	if len(full) < 4 {
		t.Fatalf("corpus gave only %d hits; fixture too small for pagination test", len(full))
	}

	var paged []QueryHit
	cursor := ""
	for {
		_, raw := postQuery(t, ts.URL, name, QueryRequest{Path: path, Kind: "occurrences", Limit: 3, Cursor: cursor})
		hits, sum := parseStream(t, raw)
		paged = append(paged, hits...)
		if sum.Error != "" {
			t.Fatalf("page failed: %s", sum.Error)
		}
		if sum.Cursor == "" {
			break
		}
		cursor = sum.Cursor
		if len(paged) > len(full)+3 {
			t.Fatal("cursor chain does not terminate")
		}
	}
	a, _ := json.Marshal(paged)
	b, _ := json.Marshal(full)
	if !bytes.Equal(a, b) {
		t.Fatalf("concatenated pages differ from unpaged result\n got: %s\nwant: %s", a, b)
	}

	// Client.Search pages transparently with a small page size.
	cl := NewClient(ts.URL, nil)
	cl.PageSize = 3
	var viaClient []cinct.Hit
	for h, err := range cl.Search(context.Background(), name, cinct.Query{Path: path, Kind: cinct.Occurrences}) {
		if err != nil {
			t.Fatal(err)
		}
		viaClient = append(viaClient, h)
	}
	if len(viaClient) != len(full) {
		t.Fatalf("Client.Search yielded %d hits, want %d", len(viaClient), len(full))
	}
	for i := range viaClient {
		if viaClient[i].Trajectory != full[i].Trajectory || viaClient[i].Offset != full[i].Offset {
			t.Fatalf("Client.Search[%d] = %+v, want %+v", i, viaClient[i], full[i])
		}
	}

	// Client-side Limit truncates mid-page-chain.
	var bounded []cinct.Hit
	for h, err := range cl.Search(context.Background(), name, cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: 4}) {
		if err != nil {
			t.Fatal(err)
		}
		bounded = append(bounded, h)
	}
	if len(bounded) != 4 {
		t.Fatalf("Client.Search with Limit 4 yielded %d hits", len(bounded))
	}
}

// TestLimitRuleCrossLayer is the satellite's table test: one limit
// rule — 0 means unlimited, negative is an error — enforced
// identically at the library, engine, HTTP endpoint and client layers.
func TestLimitRuleCrossLayer(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	cl := NewClient(ts.URL, nil)
	ctx := context.Background()
	path := fx.trajs[0][:1]
	name := fx.spatial[1]
	all := len(bruteOccurrences(fx.trajs, path))

	lib, err := cinct.Build(fx.trajs, nil)
	if err != nil {
		t.Fatal(err)
	}

	layers := []struct {
		name string
		// run returns (hits, err) for a Query with the given limit.
		run func(limit int) (int, error)
	}{
		{"library", func(limit int) (int, error) {
			r, err := lib.Search(ctx, cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: limit})
			if err != nil {
				return 0, err
			}
			n := 0
			for _, herr := range r.All() {
				if herr != nil {
					return 0, herr
				}
				n++
			}
			return n, nil
		}},
		{"engine", func(limit int) (int, error) {
			r, err := eng.Search(ctx, name, cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: limit})
			if err != nil {
				return 0, err
			}
			defer r.Close()
			return r.Count()
		}},
		{"http", func(limit int) (int, error) {
			body, _ := json.Marshal(QueryRequest{Path: path, Limit: limit})
			resp, err := http.Post(ts.URL+"/v1/"+name+"/query", "application/json", bytes.NewReader(body))
			if err != nil {
				return 0, err
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				return 0, fmt.Errorf("HTTP %d: %s", resp.StatusCode, raw)
			}
			n := 0
			for _, line := range bytes.Split(raw, []byte("\n")) {
				if len(line) == 0 || bytes.Contains(line, []byte(`"done"`)) {
					continue
				}
				n++
			}
			return n, nil
		}},
		{"client", func(limit int) (int, error) {
			page, err := cl.SearchPage(ctx, name, cinct.Query{Path: path, Kind: cinct.Occurrences, Limit: limit})
			if err != nil {
				return 0, err
			}
			return len(page.Hits), nil
		}},
	}
	cases := []struct {
		limit   int
		want    int // expected hits; -1 means an error is required
		errText string
	}{
		{limit: 0, want: all},
		{limit: 1, want: 1},
		{limit: all + 10, want: all},
		{limit: -1, want: -1, errText: "bad query"},
		{limit: -50, want: -1, errText: "bad query"},
	}
	for _, layer := range layers {
		for _, tc := range cases {
			n, err := layer.run(tc.limit)
			if tc.want < 0 {
				if err == nil {
					t.Errorf("%s limit %d: no error, want one mentioning %q", layer.name, tc.limit, tc.errText)
					continue
				}
				if !strings.Contains(err.Error(), tc.errText) && !strings.Contains(err.Error(), "HTTP 400") {
					t.Errorf("%s limit %d: err %q does not reflect the limit rule", layer.name, tc.limit, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s limit %d: %v", layer.name, tc.limit, err)
				continue
			}
			if n != tc.want {
				t.Errorf("%s limit %d: %d hits, want %d", layer.name, tc.limit, n, tc.want)
			}
		}
	}

	// The HTTP layer maps the violation to 400 specifically.
	body, _ := json.Marshal(QueryRequest{Path: path, Limit: -1})
	resp, err := http.Post(ts.URL+"/v1/"+name+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative limit over HTTP: %d, want 400", resp.StatusCode)
	}
}

// bruteOccurrences scans the corpus for every occurrence of path.
func bruteOccurrences(trajs [][]uint32, path []uint32) []cinct.Match {
	var out []cinct.Match
	for k, tr := range trajs {
		for off := 0; off+len(path) <= len(tr); off++ {
			ok := true
			for i := range path {
				if tr[off+i] != path[i] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, cinct.Match{Trajectory: k, Offset: off})
			}
		}
	}
	return out
}

// TestQueryEndpointBadRequests pins the 400 mapping for malformed
// bodies, kinds and cursors.
func TestQueryEndpointBadRequests(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	name := fx.spatial[0]

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/v1/"+name+"/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := post(`{not json`); s != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", s)
	}
	if s := post(`{"path":[1,2],"kind":"nonsense"}`); s != http.StatusBadRequest {
		t.Fatalf("unknown kind: HTTP %d, want 400", s)
	}
	if s := post(`{"path":[]}`); s != http.StatusBadRequest {
		t.Fatalf("empty path: HTTP %d, want 400", s)
	}
	if s := post(`{"path":[1,2],"cursor":"@@@"}`); s != http.StatusBadRequest {
		t.Fatalf("bad cursor: HTTP %d, want 400", s)
	}
	// A misspelt field must not run as the unbounded default it hides.
	if s := post(`{"path":[1,2],"limt":10}`); s != http.StatusBadRequest {
		t.Fatalf("unknown field: HTTP %d, want 400", s)
	}
	if s := post(`{"path":[1,2]}{"path":[3]}`); s != http.StatusBadRequest {
		t.Fatalf("trailing data: HTTP %d, want 400", s)
	}
	if s := post(`{"path":[1,2]}` + "\n"); s != http.StatusOK {
		t.Fatalf("trailing newline: HTTP %d, want 200", s)
	}
	status, _ := postQuery(t, ts.URL, "nosuch", QueryRequest{Path: []uint32{1}})
	if status != http.StatusNotFound {
		t.Fatalf("unknown index: HTTP %d, want 404", status)
	}
}
