package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/wire"
)

// flushCounter wraps the server's ResponseWriter and records how many
// body bytes had been written at each Flush.
type flushCounter struct {
	http.ResponseWriter
	written   int
	flushedAt []int
}

func (f *flushCounter) Write(p []byte) (int, error) {
	n, err := f.ResponseWriter.Write(p)
	f.written += n
	return n, err
}

func (f *flushCounter) Flush() {
	f.flushedAt = append(f.flushedAt, f.written)
	f.ResponseWriter.(http.Flusher).Flush()
}

// sharedEdgeEngine serves "ix": n trajectories that all run 1 → 2 →
// 3, so path [2] has exactly n occurrences.
func sharedEdgeEngine(t *testing.T, n int) *engine.Engine {
	t.Helper()
	trajs := make([][]uint32, n)
	for i := range trajs {
		trajs[i] = []uint32{1, 2, 3, uint32(4 + i%5)}
	}
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{})
	serveIndex(t, eng, "ix", ix)
	return eng
}

// TestQueryFlushPolicy pins when POST /query flushes: a page that fits
// the stream buffer is written once, unflushed, with a Content-Length;
// a page past flushBytes is flushed mid-stream, before its summary,
// and loses no record.
func TestQueryFlushPolicy(t *testing.T) {
	// 600 hits on edge 2: well past flushBytes of hit records.
	const nTrajs = 600
	eng := sharedEdgeEngine(t, nTrajs)
	defer eng.CloseAll()
	h := New(eng, Config{}).Handler()
	done := make(chan *flushCounter, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fc := &flushCounter{ResponseWriter: w}
		h.ServeHTTP(fc, r)
		done <- fc
	}))
	defer ts.Close()

	post := func(req QueryRequest) (*http.Response, []byte, *flushCounter) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ix/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
		}
		return resp, raw, <-done
	}

	t.Run("limit-10 page", func(t *testing.T) {
		resp, raw, fc := post(QueryRequest{Path: []uint32{2}, Limit: 10})
		if len(fc.flushedAt) != 0 {
			t.Fatalf("%d flushes, want 0", len(fc.flushedAt))
		}
		if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("Content-Length %d, Transfer-Encoding %v; want Content-Length %d",
				resp.ContentLength, resp.TransferEncoding, len(raw))
		}
		if hits, sum := parseStream(t, raw); len(hits) != 10 || !sum.Done || sum.Cursor == "" {
			t.Fatalf("%d hits, summary %+v; want 10 hits and a resume cursor", len(hits), sum)
		}
	})

	t.Run("unbounded page", func(t *testing.T) {
		q := cinct.Query{Path: []uint32{2}}
		resp, raw, fc := post(WireQuery(q))
		summaryAt := bytes.LastIndex(raw[:len(raw)-1], []byte("\n")) + 1
		if summaryAt <= flushBytes {
			t.Fatalf("hit records are %d bytes, want more than flushBytes (%d)", summaryAt, flushBytes)
		}
		if len(fc.flushedAt) == 0 {
			t.Fatal("no flush before the summary")
		}
		for _, at := range fc.flushedAt {
			if at > summaryAt {
				t.Fatalf("flush at byte %d, past the summary at %d", at, summaryAt)
			}
		}
		if resp.ContentLength != -1 {
			t.Fatalf("Content-Length %d on a flushed stream", resp.ContentLength)
		}
		hits, sum := parseStream(t, raw)
		want, n, cursor := wireFromEngine(t, eng, "ix", q)
		if len(want) != nTrajs || len(hits) != len(want) || sum.Count != n || sum.Cursor != cursor || !sum.Done {
			t.Fatalf("%d hits, summary %+v; want %d hits, count %d", len(hits), sum, len(want), n)
		}
		for i := range want {
			if hits[i] != want[i] {
				t.Fatalf("hit %d = %+v, want %+v", i, hits[i], want[i])
			}
		}
	})
}

// TestAppendHitMatchesEncodeJSON pins the append encoder to the
// canonical encoding, byte for byte.
func TestAppendHitMatchesEncodeJSON(t *testing.T) {
	ats := []int64{0, -1, 1, 1700000000, math.MinInt64, math.MaxInt64}
	ints := []int{0, -1, 7, 123456789, math.MinInt64, math.MaxInt64}
	for _, traj := range ints {
		for _, off := range ints {
			checkAppendHit(t, QueryHit{Trajectory: traj, Offset: off})
			for _, at := range ats {
				checkAppendHit(t, QueryHit{Trajectory: traj, Offset: off, EnteredAt: &at})
			}
		}
	}
}

func checkAppendHit(t *testing.T, rec QueryHit) {
	t.Helper()
	want, err := EncodeJSON(rec)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("{}\n")
	got := wire.AppendHit(prefix, rec)
	if !bytes.Equal(got[:len(prefix)], []byte("{}\n")) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendHit(%q, %+v) = %q, want the prefix then %q", prefix, rec, got, want)
	}
}
