package server

import (
	"bytes"
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"cinct/internal/engine"
)

// TestEventsStreamSkipsGateAndTimeout pins what serve does differently
// for the one streaming route: an SSE events stream attaches while the
// MaxInflight gate is full, and keeps delivering long after
// RequestTimeout has passed, ending with its "end" event rather than
// being cut.
func TestEventsStreamSkipsGateAndTimeout(t *testing.T) {
	const timeout = 20 * time.Millisecond
	eng := sharedEdgeEngine(t, 4)
	defer eng.CloseAll()
	srv := New(eng, Config{RequestTimeout: timeout, MaxInflight: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := context.Background()
	cl := NewClient(ts.URL, nil)
	path := []uint32{1, 2, 3}

	sub, err := cl.Subscribe(ctx, "ix", SubscribeRequest{Path: path, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the gate: every other route is now shed.
	srv.inflight <- struct{}{}
	if _, err := cl.Indexes(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("GET /v1/indexes with the gate full: %v, want ErrOverloaded", err)
	}

	type event struct {
		n   engine.Notification
		err error
	}
	// The buffer holds more than the stream ever yields, so the
	// goroutine never blocks on a test that stopped reading.
	events := make(chan event, 8)
	go func() {
		defer close(events)
		for n, err := range cl.Notifications(ctx, "ix", sub.Subscription) {
			events <- event{n, err}
		}
	}()
	next := func(what string) (event, bool) {
		t.Helper()
		select {
		case ev, ok := <-events:
			return ev, ok
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timed out", what)
		}
		return event{}, false
	}
	appendRow := func() int {
		t.Helper()
		res, err := eng.Append(ctx, "ix", [][]uint32{path}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstID
	}

	first := appendRow()
	if ev, ok := next("first notification"); !ok || ev.err != nil || ev.n.Trajectory != first {
		t.Fatalf("first notification %+v (open %v), want trajectory %d", ev, ok, first)
	}
	// The stream is attached; let the request deadline pass many times.
	time.Sleep(10 * timeout)
	late := appendRow()
	if ev, ok := next("notification past the deadline"); !ok || ev.err != nil || ev.n.Trajectory != late {
		t.Fatalf("notification past RequestTimeout %+v (open %v), want trajectory %d", ev, ok, late)
	}

	<-srv.inflight
	if err := cl.Unsubscribe(ctx, "ix", sub.Subscription); err != nil {
		t.Fatal(err)
	}
	if ev, ok := next("end"); ok {
		t.Fatalf("after cancel: %+v, want the stream to end at its end event", ev)
	}
}

// TestRejectedRequestsCountedAndLoggedOnce pins that a request the rate
// limiter refuses and one the gate sheds each count once in
// cinct_http_requests_total, under 429 and 503, and each write exactly
// one access-log line carrying that status.
func TestRejectedRequestsCountedAndLoggedOnce(t *testing.T) {
	eng := sharedEdgeEngine(t, 4)
	defer eng.CloseAll()
	var logs bytes.Buffer
	srv := New(eng, Config{RateLimit: 0.01, RateBurst: 1, MaxInflight: 1, Logger: log.New(&logs, "", 0)})
	h := srv.Handler()
	get := func(client string) int {
		req := httptest.NewRequest(http.MethodGet, "/v1/indexes", nil)
		req.Header.Set("X-Client-ID", client)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	if code := get("a"); code != http.StatusOK {
		t.Fatalf("first request: HTTP %d, want 200", code)
	}
	if code := get("a"); code != http.StatusTooManyRequests {
		t.Fatalf("second request of client a: HTTP %d, want 429", code)
	}
	srv.inflight <- struct{}{}
	if code := get("b"); code != http.StatusServiceUnavailable {
		t.Fatalf("request with the gate full: HTTP %d, want 503", code)
	}
	<-srv.inflight

	for code, want := range map[string]int64{"200": 1, "429": 1, "503": 1} {
		if n := srv.metrics.requests.With(code).Value(); n != want {
			t.Errorf(`cinct_http_requests_total{code=%q} = %d, want %d`, code, n, want)
		}
	}
	if n := srv.metrics.rateLimited.Value(); n != 1 {
		t.Errorf("cinct_http_rate_limited_total = %d, want 1", n)
	}
	if n := srv.metrics.shed.Value(); n != 1 {
		t.Errorf("cinct_http_shed_total = %d, want 1", n)
	}

	access := regexp.MustCompile(`(?m)^req#\d+ GET /v1/indexes (\d+) `)
	lines := map[string]int{}
	for _, m := range access.FindAllStringSubmatch(logs.String(), -1) {
		lines[m[1]]++
	}
	if lines["200"] != 1 || lines["429"] != 1 || lines["503"] != 1 || len(lines) != 3 {
		t.Fatalf("access-log lines by status %v, want one each for 200, 429 and 503; log:\n%s", lines, logs.String())
	}
}
