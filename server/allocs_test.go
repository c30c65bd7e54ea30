// The race detector drops sync.Pool items at random, so allocation
// counts are only meaningful without it.

//go:build !race

package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// queryAllocs is the allocs/op the server adds to a cache-hit limit-10
// POST /query, beyond building the request and the recorder: the
// request wrapper, the strict body decode, the engine's cache replay
// and the stream encoding. Lower it when a change saves allocations;
// a change that needs more must say why. 29 is the count go1.24 on
// linux/amd64 measures.
const queryAllocs = 29

// TestHotPathAllocs guards the allocation count of the request path a
// repeated query takes: a limit-10 page the engine answers from its
// result cache, served through the full handler into a recorder.
func TestHotPathAllocs(t *testing.T) {
	eng := sharedEdgeEngine(t, 100)
	defer eng.CloseAll()
	h := New(eng, Config{}).Handler()
	body := []byte(`{"path":[2],"limit":10}`)
	harness := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/ix/query", bytes.NewReader(body))
	}
	serve := func() {
		rec, req := harness()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
		}
	}
	serve() // fill the cache
	base := testing.AllocsPerRun(200, func() { harness() })
	got := testing.AllocsPerRun(200, serve) - base
	if got > queryAllocs {
		t.Fatalf("cache-hit limit-10 /query: %v allocs/op, want at most %d", got, queryAllocs)
	}
	if got < queryAllocs {
		t.Logf("cache-hit limit-10 /query: %v allocs/op, below the pinned %d: lower queryAllocs", got, queryAllocs)
	}
}
