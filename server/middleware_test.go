package server

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/wal"
	"cinct/internal/wire"
)

// statusCases is every typed error the stack can surface, with the
// status it answers.
var statusCases = []struct {
	name string
	err  error
	want int
}{
	{"engine.ErrNotFound", engine.ErrNotFound, http.StatusNotFound},
	{"cinct.ErrOutOfRange", cinct.ErrOutOfRange, http.StatusBadRequest},
	{"cinct.ErrBadQuery", cinct.ErrBadQuery, http.StatusBadRequest},
	{"cinct.ErrBadCursor", cinct.ErrBadCursor, http.StatusBadRequest},
	{"cinct.ErrBadAppend", cinct.ErrBadAppend, http.StatusBadRequest},
	{"engine.ErrBadSubscription", engine.ErrBadSubscription, http.StatusBadRequest},
	{"engine.ErrStaleCursor", engine.ErrStaleCursor, http.StatusGone},
	{"cinct.ErrNoLocate", cinct.ErrNoLocate, http.StatusUnprocessableEntity},
	{"cinct.ErrNoTimestamps", cinct.ErrNoTimestamps, http.StatusUnprocessableEntity},
	{"cinct.ErrNotAppendable", cinct.ErrNotAppendable, http.StatusUnprocessableEntity},
	{"engine.ErrNoRoadnet", engine.ErrNoRoadnet, http.StatusUnprocessableEntity},
	{"cinct.ErrLegacyFormat", cinct.ErrLegacyFormat, http.StatusUnprocessableEntity},
	{"server.ErrRateLimited", ErrRateLimited, http.StatusTooManyRequests},
	{"server.ErrOverloaded", ErrOverloaded, http.StatusServiceUnavailable},
	{"cinct.ErrCorrupt", cinct.ErrCorrupt, http.StatusInternalServerError},
	// Not sentinels of these packages.
	{"bad request", errBadRequest, http.StatusBadRequest},
	{"rate limited typed", &rateLimitError{retryAfter: time.Second}, http.StatusTooManyRequests},
	{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
	{"client gone", context.Canceled, statusClientClosedRequest},
	{"corrupt WAL", wal.ErrCorrupt, http.StatusInternalServerError},
	{"unknown", errors.New("boom"), http.StatusInternalServerError},
}

// TestHTTPStatusTable pins the status code for every typed error the
// stack can surface, wrapped the way real call sites wrap them — the
// wire contract clients key retry behavior off. It lists every exported
// error sentinel of cinct, engine and server exactly once, checked
// against their sources, so a new sentinel cannot ship unmapped.
func TestHTTPStatusTable(t *testing.T) {
	cases := statusCases
	listed := map[string]int{}
	for _, tc := range cases {
		listed[tc.name]++
		if got := httpStatus(tc.err); got != tc.want {
			t.Errorf("httpStatus(%s) = %d, want %d", tc.name, got, tc.want)
		}
		// Wrapped the way handlers wrap engine errors.
		if got := httpStatus(fmt.Errorf("context: %w", tc.err)); got != tc.want {
			t.Errorf("httpStatus(wrapped %s) = %d, want %d", tc.name, got, tc.want)
		}
	}
	sentinels := exportedErrors(t, map[string]string{"cinct": "..", "engine": "../internal/engine", "server": "."})
	for _, name := range sentinels {
		if listed[name] != 1 {
			t.Errorf("%s is listed %d times, want once", name, listed[name])
		}
		delete(listed, name)
	}
	for name := range listed {
		if strings.Contains(name, ".Err") {
			t.Errorf("%s is listed but is no exported sentinel of its package", name)
		}
	}
}

// exportedErrors returns "pkg.ErrX" for every exported package-level
// variable named Err… in the non-test sources of each package
// directory.
func exportedErrors(t *testing.T, dirs map[string]string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	for pkg, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					for _, spec := range gd.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.IsExported() && strings.HasPrefix(id.Name, "Err") {
								names = append(names, pkg+"."+id.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

// TestSentinelsCrossTheWire sends every sentinel of statusCases
// through serve to the Go client, the two ways a reply can fail: as an
// error reply, and as the error summary that ends a query stream that
// has already flushed past flushBytes, ended by endStream as query ends
// it. Either way the client's error is an *APIError with
// the sentinel's status that errors.Is matches to that sentinel and to
// no other; an unmapped failure is a 500 that matches none.
func TestSentinelsCrossTheWire(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	srv := New(eng, Config{})
	var sentinels []error
	for _, tc := range statusCases {
		if strings.Contains(tc.name, ".Err") {
			sentinels = append(sentinels, tc.err)
		}
	}
	// failure is sentinel i, or an unmapped error when i is no index.
	failure := func(i string) error {
		n, err := strconv.Atoi(i)
		if err != nil {
			return errors.New("boom")
		}
		return fmt.Errorf("handler context: %w", sentinels[n])
	}
	mux := http.NewServeMux()
	mux.Handle("GET /fail", srv.serve(route{Handler: func(_ context.Context, _ http.ResponseWriter, r *http.Request) error {
		return failure(r.URL.Query().Get("i"))
	}}))
	mux.Handle("POST /v1/{index}/query", srv.serve(route{Handler: func(_ context.Context, w http.ResponseWriter, r *http.Request) error {
		var buf []byte
		for i := 0; len(buf) <= flushBytes; i++ {
			buf = wire.AppendHit(buf, QueryHit{Trajectory: i, Offset: i})
		}
		w.Write(buf) //nolint:errcheck // the client reads what arrived
		w.(http.Flusher).Flush()
		return endStream(w, nil, true, QuerySummary{}, failure(r.PathValue("index")))
	}}))
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()
	legs := []struct {
		name string
		fail func(i string) error
	}{
		{"error reply", func(i string) error {
			_, err := call[ErrorResponse](ctx, c, http.MethodGet, "/fail", url.Values{"i": {i}}, "", nil)
			return err
		}},
		{"stream summary", func(i string) error {
			_, err := c.SearchPage(ctx, i, cinct.Query{Path: []uint32{1}})
			return err
		}},
	}
	for _, leg := range legs {
		for i, want := range sentinels {
			err := leg.fail(strconv.Itoa(i))
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != httpStatus(want) {
				t.Fatalf("%s, %v: client error %#v, want an APIError with status %d", leg.name, want, err, httpStatus(want))
			}
			for _, other := range sentinels {
				if got := errors.Is(err, other); got != (other == want) {
					t.Errorf("%s for %q (HTTP %d): errors.Is(err, %q) = %v", leg.name, want, apiErr.Status, other, got)
				}
			}
		}
		// An unmapped failure is a 500 too, and matches no sentinel.
		err := leg.fail("unmapped")
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
			t.Fatalf("%s, unmapped: client error %#v, want an APIError with status 500", leg.name, err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				t.Errorf("%s: unmapped 500 %v matches %q", leg.name, err, s)
			}
		}
	}
}

// TestRateLimitEndToEnd floods a rate-limited server and checks the
// whole contract: 429 status, Retry-After header, typed client error,
// per-client isolation via X-Client-ID, and the rate-limited counter.
func TestRateLimitEndToEnd(t *testing.T) {
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	ts := httptest.NewServer(New(eng, Config{RateLimit: 1, RateBurst: 2}).Handler())
	defer ts.Close()
	ctx := context.Background()

	get := func(clientID string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/indexes", nil)
		if err != nil {
			return nil, err
		}
		if clientID != "" {
			req.Header.Set("X-Client-ID", clientID)
		}
		return http.DefaultClient.Do(req)
	}

	// Burst of 2 passes, the third request is over budget.
	limited := false
	for i := 0; i < 3; i++ {
		resp, err := get("flood")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if i < 2 {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: HTTP %d, want 200", i, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: HTTP %d, want 429", i, resp.StatusCode)
		}
		limited = true
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
			t.Fatalf("429 Retry-After = %q, want integral seconds >= 1", resp.Header.Get("Retry-After"))
		}
		if !strings.Contains(string(body), "rate limited") {
			t.Fatalf("429 body = %s, want JSON error mentioning the limit", body)
		}
	}
	if !limited {
		t.Fatal("flood never hit the limiter")
	}

	// A different client has its own bucket.
	resp, err := get("other")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client: HTTP %d, want 200", resp.StatusCode)
	}

	// The Client surfaces the typed error with the parsed hint.
	cl := NewClient(ts.URL, nil)
	var lastErr error
	for i := 0; i < 4 && lastErr == nil; i++ {
		_, lastErr = cl.Indexes(ctx)
	}
	if !errors.Is(lastErr, ErrRateLimited) {
		t.Fatalf("client flood err = %v, want ErrRateLimited", lastErr)
	}
	var ae *APIError
	if !errors.As(lastErr, &ae) || ae.Status != http.StatusTooManyRequests || ae.RetryAfter < time.Second {
		t.Fatalf("client flood err = %#v, want APIError{429, RetryAfter >= 1s}", lastErr)
	}

	// The registry counted the rejections.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(scrape), "cinct_http_rate_limited_total") ||
		strings.Contains(string(scrape), "cinct_http_rate_limited_total 0\n") {
		t.Fatalf("scrape does not show rate-limited rejections:\n%s", scrape)
	}
	if !strings.Contains(string(scrape), `cinct_http_requests_total{code="429"}`) {
		t.Fatalf("scrape missing 429 request counter:\n%s", scrape)
	}
}

// TestOverloadShedEndToEnd pins the one shed point: with the server's
// concurrency gate (MaxInflight 1) held by a count queued on a
// saturated one-worker engine, further requests (an index listing and
// an interval query alike) bounce at the gate with 503 and Retry-After
// and come back typed through the Client, while the queued count
// completes once the engine slot frees.
func TestOverloadShedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{Workers: 1, CacheEntries: -1})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	path := fx.trajs[0][:1]

	// Hold the only engine worker slot in-process.
	hold, err := eng.Search(ctx, "spatial1", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	blocked := make(chan error, 1)
	go func() {
		// Queues on the engine pool, holding the single gate slot.
		_, err := remoteCount(ctx, NewClient(ts.URL, nil), "spatial1", path)
		blocked <- err
	}()
	// Probe only once the count is seen holding the gate (it keeps it
	// until hold is closed). Probing earlier can take the one slot
	// itself and bounce the count instead.
	for deadline := time.Now().Add(5 * time.Second); len(srv.inflight) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("queued count never took the gate slot")
		}
	}
	cl := NewClient(ts.URL, nil)
	if _, err := cl.Indexes(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("gate shed err = %v, want ErrOverloaded (503)", err)
	}
	_, err = cl.SearchPage(ctx, "temporal1", cinct.Query{Path: path, Kind: cinct.CountOnly, Interval: &cinct.Interval{From: 0, To: 1 << 60}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("interval query at a full gate: err = %v, want ErrOverloaded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.RetryAfter < time.Second {
		t.Fatalf("shed err = %#v, want APIError{503, RetryAfter >= 1s}", err)
	}
	hold.Close()
	if err := <-blocked; err != nil {
		t.Fatalf("queued count after release: %v", err)
	}
}

// TestClientCancelIs499 cancels a request while it is queued behind the
// engine's only worker: the hang-up is the client's doing, so it is
// answered (to nobody) and counted as 499 with no error body — not as a
// 500 the server did not commit.
func TestClientCancelIs499(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{Workers: 1, CacheEntries: -1})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{})
	path := fx.trajs[0][:1]

	// Hold the only worker, so the request below can only ever queue.
	hold, err := eng.Search(context.Background(), "spatial1", cinct.Query{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/spatial1/query",
		strings.NewReader(`{"path":[`+strconv.Itoa(int(path[0]))+`],"kind":"count"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Handler().ServeHTTP(rec, req)
	}()
	for deadline := time.Now().Add(5 * time.Second); srv.metrics.inflight.Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("request never entered the middleware chain")
		}
	}
	cancel()
	<-served

	if rec.Code != statusClientClosedRequest || rec.Body.Len() != 0 {
		t.Fatalf("cancelled request: HTTP %d with body %q, want 499 and no body", rec.Code, rec.Body)
	}
	if n := srv.metrics.requests.With("499").Value(); n != 1 {
		t.Fatalf(`cinct_http_requests_total{code="499"} = %d, want 1`, n)
	}
	if n := srv.metrics.requests.With("500").Value(); n != 0 {
		t.Fatalf(`cinct_http_requests_total{code="500"} = %d, want 0`, n)
	}
}

// TestMetricsEndpoint checks the scrape surface end to end: the
// endpoint serves the Prometheus text format outside the middleware
// chain, and a query moves the engine counters it exposes.
func TestMetricsEndpoint(t *testing.T) {
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

	scrape := func() string {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("GET /metrics Content-Type = %q", ct)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	counter := func(scrape, name string) int64 {
		for _, line := range strings.Split(scrape, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatalf("parsing %s value %q: %v", name, rest, err)
				}
				return v
			}
		}
		return 0
	}

	before := scrape()
	for _, series := range []string{
		"cinct_query_seconds_bucket", "cinct_query_cost_steps_bucket",
		"cinct_cache_hits_total", "cinct_cache_misses_total",
		"cinct_pool_inflight", "cinct_pool_capacity",
		"cinct_wal_bytes", "cinct_seal_seconds_count", "cinct_compaction_seconds_count",
		"cinct_http_requests_total", "cinct_http_inflight",
	} {
		if !strings.Contains(before, series) {
			t.Fatalf("scrape missing series %q:\n%s", series, before)
		}
	}

	cl := NewClient(ts.URL, nil)
	if _, err := remoteCount(ctx, cl, "spatial1", fx.trajs[0][:2]); err != nil {
		t.Fatal(err)
	}
	after := scrape()
	if got := counter(after, `cinct_queries_total{kind="count"}`); got < 1 {
		t.Fatalf("cinct_queries_total{kind=count} = %d after a count, want >= 1", got)
	}
	if b, a := counter(before, "cinct_query_seconds_count"), counter(after, "cinct_query_seconds_count"); a <= b {
		t.Fatalf("cinct_query_seconds_count did not advance (%d -> %d)", b, a)
	}
	if b, a := counter(before, `cinct_http_requests_total{code="200"}`), counter(after, `cinct_http_requests_total{code="200"}`); a <= b {
		t.Fatalf("cinct_http_requests_total{code=200} did not advance (%d -> %d)", b, a)
	}
}
