package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cinct"
	"cinct/internal/engine"
)

// TestHTTPStatusTable pins the status code for every typed error the
// stack can surface, wrapped the way real call sites wrap them — the
// wire contract clients key retry behavior off.
func TestHTTPStatusTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"not found", engine.ErrNotFound, http.StatusNotFound},
		{"out of range", engine.ErrOutOfRange, http.StatusBadRequest},
		{"bad request", errBadRequest, http.StatusBadRequest},
		{"bad query", cinct.ErrBadQuery, http.StatusBadRequest},
		{"bad cursor", cinct.ErrBadCursor, http.StatusBadRequest},
		{"bad append", cinct.ErrBadAppend, http.StatusBadRequest},
		{"stale cursor", engine.ErrStaleCursor, http.StatusGone},
		{"not temporal", engine.ErrNotTemporal, http.StatusUnprocessableEntity},
		{"no file", engine.ErrNoFile, http.StatusUnprocessableEntity},
		{"no locate", cinct.ErrNoLocate, http.StatusUnprocessableEntity},
		{"no timestamps", cinct.ErrNoTimestamps, http.StatusUnprocessableEntity},
		{"not appendable", cinct.ErrNotAppendable, http.StatusUnprocessableEntity},
		{"legacy format", cinct.ErrLegacyFormat, http.StatusUnprocessableEntity},
		{"rate limited", ErrRateLimited, http.StatusTooManyRequests},
		{"rate limited typed", &rateLimitError{retryAfter: time.Second}, http.StatusTooManyRequests},
		{"overloaded", engine.ErrOverloaded, http.StatusServiceUnavailable},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"client gone", context.Canceled, statusClientClosedRequest},
		{"corrupt", engine.ErrCorrupt, http.StatusInternalServerError},
		{"unknown", errors.New("boom"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := httpStatus(tc.err); got != tc.want {
			t.Errorf("httpStatus(%s) = %d, want %d", tc.name, got, tc.want)
		}
		// Wrapped the way handlers wrap engine errors.
		if got := httpStatus(fmt.Errorf("context: %w", tc.err)); got != tc.want {
			t.Errorf("httpStatus(wrapped %s) = %d, want %d", tc.name, got, tc.want)
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

// TestOverloadShedEndToEnd saturates a one-worker engine with an
// undrained stream, then checks both shed paths map to 503 with
// Retry-After and come back typed through the Client: the engine's
// cost-aware admission control and the server's concurrency gate.
func TestOverloadShedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	fx := writeFixture(t, dir)
	eng := engine.New(engine.Options{Workers: 1, CacheEntries: -1, ShedCost: 1000})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{MaxInflight: 8}).Handler())
	defer ts.Close()
	ctx := context.Background()
	path := fx.trajs[0][:1]

	// Hold the only engine worker slot in-process.
	hold, err := eng.Search(ctx, "spatial1", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()

	// Engine-level shed: an unbounded scan over HTTP → 503, typed.
	cl := NewClient(ts.URL, nil)
	_, err = cl.SearchPage(ctx, "spatial1", cinct.Query{Path: path, Kind: cinct.Occurrences})
	if !errors.Is(err, engine.ErrOverloaded) {
		t.Fatalf("unbounded search on saturated engine: err = %v, want engine.ErrOverloaded", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable || ae.RetryAfter < time.Second {
		t.Fatalf("shed err = %#v, want APIError{503, RetryAfter >= 1s}", err)
	}

	// Server-gate shed: with MaxInflight 1 and the slot pinned by a
	// request queued on the engine's worker pool, the next request
	// bounces at the gate with 503.
	srv2 := New(eng, Config{MaxInflight: 1})
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	blocked := make(chan error, 1)
	go func() {
		// Cheap count: queues on the engine pool (cost below ShedCost),
		// holding ts2's single gate slot.
		cl2 := NewClient(ts2.URL, nil)
		_, err := remoteCount(ctx, cl2, "spatial1", path)
		blocked <- err
	}()
	// Probe only once the count is seen holding the gate (it keeps it
	// until hold is closed). Probing earlier can take the one slot
	// itself and bounce the count instead.
	for deadline := time.Now().Add(5 * time.Second); len(srv2.inflight) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("queued count never took the gate slot")
		}
	}
	if _, gateErr := NewClient(ts2.URL, nil).Indexes(ctx); !errors.Is(gateErr, engine.ErrOverloaded) {
		t.Fatalf("gate shed err = %v, want engine.ErrOverloaded (503)", gateErr)
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
