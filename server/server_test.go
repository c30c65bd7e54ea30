package server

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/trajgen"
)

func testEngine(t *testing.T) *engine.Engine {
	t.Helper()
	cfg := trajgen.Config{GridW: 6, GridH: 6, NumTrajs: 40, MeanLen: 10, Seed: 5}
	ix, err := cinct.Build(trajgen.Singapore2(cfg).Trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	eng.Register("ix", ix)
	return eng
}

// TestServerGracefulShutdown serves on a real listener, completes a
// request, shuts down cleanly, and verifies the port is released.
func TestServerGracefulShutdown(t *testing.T) {
	eng := testEngine(t)
	defer eng.CloseAll()
	srv := New(eng, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	base := "http://" + l.Addr().String()
	resp, err := http.Get(base + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("indexes: HTTP %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	if _, err := http.Get(base + "/v1/indexes"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}

// TestServerRequestTimeout maps an expired request context to 504.
func TestServerRequestTimeout(t *testing.T) {
	eng := testEngine(t)
	defer eng.CloseAll()
	srv := New(eng, Config{RequestTimeout: time.Nanosecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l) //nolint:errcheck
	defer srv.Shutdown(context.Background())

	resp, err := http.Post("http://"+l.Addr().String()+"/v1/ix/query", "application/json",
		strings.NewReader(`{"path":[1,2],"kind":"count"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired context: HTTP %d, want 504", resp.StatusCode)
	}
}

// TestRouteTable pins the served surface: exactly these method+pattern
// pairs are registered — a route can neither return nor vanish silently
// — and the per-operation routes POST /query replaced, and the long-poll
// twin of the SSE events stream, answer 404/405.
func TestRouteTable(t *testing.T) {
	eng := testEngine(t)
	defer eng.CloseAll()
	srv := New(eng, Config{})

	want := []string{
		"GET /v1/indexes",
		"POST /v1/{index}/reload",
		"POST /v1/{index}/ingest",
		"POST /v1/{index}/seal",
		"POST /v1/{index}/compact",
		"POST /v1/{index}/query",
		"GET /v1/{index}/trajectory/{id}",
		"GET /v1/{index}/subpath",
		"POST /v1/{index}/gps",
		"POST /v1/{index}/subscribe",
		"GET /v1/{index}/subscriptions/{id}/events",
		"DELETE /v1/{index}/subscriptions/{id}",
	}
	var got []string
	for _, r := range srv.routers {
		for _, route := range r.Routes() {
			got = append(got, route.Method+" "+route.Pattern)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("registered routes:\n got %q\nwant %q", got, want)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if s := status("/metrics"); s != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d, want 200", s)
	}
	for _, gone := range []string{
		"/v1/ix/count?path=1,2",
		"/v1/ix/find?path=1,2",
		"/v1/ix/temporal/find?path=1,2",
		"/v1/ix/temporal/count?path=1,2",
	} {
		if s := status(gone); s != http.StatusNotFound && s != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: HTTP %d, want 404 or 405", gone, s)
		}
	}
	// The long-poll twin of the events stream is gone.
	if s := status("/v1/ix/subscriptions/s1/" + "poll"); s != http.StatusNotFound {
		t.Fatalf("GET the removed long-poll route: HTTP %d, want 404", s)
	}
}

// TestReloadOntoLegacyFileIs422 replaces an index's file with a pre-v3
// one and reloads it over HTTP: the answer is 422 naming the converter,
// and the index keeps serving what it had.
func TestReloadOntoLegacyFileIs422(t *testing.T) {
	dir := t.TempDir()
	trajs := trajgen.Singapore2(trajgen.Config{GridW: 6, GridH: 6, NumTrajs: 40, MeanLen: 10, Seed: 5}).Trajs
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ix"+engine.ExtSpatial)
	writeIndexFile(t, path, ix.Save)
	eng := engine.New(engine.Options{})
	defer eng.CloseAll()
	if _, err := eng.OpenDir(dir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(eng, Config{}).Handler())
	defer ts.Close()
	ctx := context.Background()
	c := NewClient(ts.URL, nil)

	old, err := os.ReadFile(filepath.Join("..", "testdata", "legacy", "temporal-4.tcinct"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
	_, err = c.Reload(ctx, "ix")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity ||
		!strings.Contains(apiErr.Message, "cinct convert") {
		t.Fatalf("reload onto a pre-v3 file: %v, want HTTP 422 naming cinct convert", err)
	}
	path2 := trajs[0][:2]
	if n, err := remoteCount(ctx, c, "ix", path2); err != nil || n != ix.Count(path2) {
		t.Fatalf("after the refused reload count = %d, %v; want %d", n, err, ix.Count(path2))
	}
}
