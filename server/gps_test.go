package server

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/gps"
	"cinct/internal/mapmatch"
	"cinct/internal/roadnet"
)

// gpsFixture stands up a daemon over one temporal index whose corpus
// lives on a roadnet grid, with the grid attached for GPS ingest.
type gpsFixture struct {
	eng    *engine.Engine
	client *Client
	url    string
	// streamDone receives when an events handler returns (dropped
	// while an earlier signal is unread).
	streamDone <-chan struct{}
	graph      *roadnet.Graph
	rng        *rand.Rand
}

func newGPSFixture(t *testing.T) *gpsFixture {
	t.Helper()
	g := roadnet.Grid(8, 8, 41)
	rng := rand.New(rand.NewSource(42))
	var trajs [][]uint32
	var times [][]int64
	for i := 0; i < 10; i++ {
		row := wireWalk(g, rng, 10)
		col := make([]int64, len(row))
		for j := range col {
			col[j] = int64(1000*i + 10*j)
		}
		trajs = append(trajs, row)
		times = append(times, col)
	}
	tix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Options{SealThreshold: -1})
	t.Cleanup(e.Shutdown)
	t.Cleanup(e.CloseAll)
	e.Register("roads", tix.Index)
	e.AttachRoadnet("roads", g, mapmatch.Config{})

	h := New(e, Config{}).Handler()
	streamDone := make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/events") {
			select {
			case streamDone <- struct{}{}:
			default:
			}
		}
	}))
	t.Cleanup(ts.Close)
	return &gpsFixture{eng: e, client: NewClient(ts.URL, nil), url: ts.URL,
		streamDone: streamDone, graph: g, rng: rng}
}

// wireWalk is a U-turn-free random walk returning wire-shaped edges.
func wireWalk(g *roadnet.Graph, rng *rand.Rand, length int) []uint32 {
	cur := roadnet.EdgeID(rng.Intn(g.NumEdges()))
	path := []uint32{uint32(cur)}
	for len(path) < length {
		rev, hasRev := g.Reverse(cur)
		var choices []roadnet.EdgeID
		for _, nx := range g.NextEdges(cur) {
			if hasRev && nx == rev {
				continue
			}
			choices = append(choices, nx)
		}
		if len(choices) == 0 {
			break
		}
		cur = choices[rng.Intn(len(choices))]
		path = append(path, uint32(cur))
	}
	return path
}

func edgePath(edges []uint32) []roadnet.EdgeID {
	out := make([]roadnet.EdgeID, len(edges))
	for i, e := range edges {
		out[i] = roadnet.EdgeID(e)
	}
	return out
}

// TestGPSIngestDifferential is the PR's acceptance flow end to end:
// simulate a noisy trace along a known edge path, ingest it over HTTP,
// find the matched trajectory via /v1/{index}/query, check it equals
// the ground-truth path, and receive exactly one SSE notification on a
// standing query registered for that path.
func TestGPSIngestDifferential(t *testing.T) {
	fx := newGPSFixture(t)
	ctx := context.Background()

	truth := wireWalk(fx.graph, fx.rng, 12)
	tr := gps.Simulate(fx.graph, edgePath(truth), 0.02, 90_000, 15, fx.rng)

	// Standing query on the ground-truth path, registered before the
	// ingest; consume over SSE concurrently.
	sub, err := fx.client.Subscribe(ctx, "roads", SubscribeRequest{Path: truth})
	if err != nil {
		t.Fatal(err)
	}
	sseCtx, cancelSSE := context.WithCancel(ctx)
	defer cancelSSE()
	got := make(chan engine.Notification, 8)
	sseErr := make(chan error, 1)
	go func() {
		defer close(got)
		for n, err := range fx.client.Notifications(sseCtx, "roads", sub.Subscription) {
			if err != nil {
				sseErr <- err
				return
			}
			got <- n
		}
	}()

	res, err := fx.client.IngestGPS(ctx, "roads", []gps.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 0 || !res.Results[0].Accepted {
		t.Fatalf("ingest response %+v", res)
	}
	id := res.Results[0].ID

	// The matched trajectory is findable through the ordinary query
	// endpoint...
	var hits []cinct.Hit
	for h, err := range fx.client.Search(ctx, "roads", cinct.Query{Path: truth, Kind: cinct.Trajectories}) {
		if err != nil {
			t.Fatal(err)
		}
		hits = append(hits, h)
	}
	foundIngested := false
	for _, h := range hits {
		if h.Trajectory == id {
			foundIngested = true
		}
	}
	if !foundIngested {
		t.Fatalf("query for %v returned %v, missing ingested id %d", truth, hits, id)
	}

	// ...and reconstructs to exactly the ground-truth path.
	edges, err := fx.client.Trajectory(ctx, "roads", id)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != len(truth) {
		t.Fatalf("trajectory %v, want %v", edges, truth)
	}
	for i := range truth {
		if edges[i] != truth[i] {
			t.Fatalf("edge %d: %d != %d", i, edges[i], truth[i])
		}
	}

	// Exactly one notification arrives for the standing query.
	select {
	case n := <-got:
		if n.Index != "roads" || n.Trajectory != id || n.Offset != 0 || n.EnteredAt != 90_000 {
			t.Fatalf("notification %+v, want trajectory %d at offset 0 entered 90000", n, id)
		}
	case err := <-sseErr:
		t.Fatalf("SSE stream: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for SSE notification")
	}
	select {
	case n, ok := <-got:
		if ok {
			t.Fatalf("unexpected second notification %+v", n)
		}
	case <-time.After(200 * time.Millisecond):
	}

	// Cancel ends the subscription; the SSE stream terminates cleanly.
	if err := fx.client.Unsubscribe(ctx, "roads", sub.Subscription); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-got:
		if ok {
			t.Fatal("notification after cancel")
		}
	case err := <-sseErr:
		t.Fatalf("SSE stream after cancel: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream did not terminate after cancel")
	}
	if err := fx.client.Unsubscribe(ctx, "roads", sub.Subscription); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("double cancel: %v", err)
	}
}

// TestGPSIngestRejectsOverWire: per-trace reject reasons survive the
// wire, and a roadnet-less index maps ErrNoRoadnet to 422.
func TestGPSIngestRejectsOverWire(t *testing.T) {
	fx := newGPSFixture(t)
	ctx := context.Background()

	good := gps.Simulate(fx.graph, edgePath(wireWalk(fx.graph, fx.rng, 8)), 0.02, 1000, 10, fx.rng)
	offNetwork := gps.Trace{Points: []gps.Point{{Lat: 500, Lon: 500, T: 1}, {Lat: 501, Lon: 500, T: 2}}}
	untimed := gps.Simulate(fx.graph, edgePath(wireWalk(fx.graph, fx.rng, 8)), 0.02, 0, 0, fx.rng)

	res, err := fx.client.IngestGPS(ctx, "roads", []gps.Trace{good, offNetwork, untimed})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 2 {
		t.Fatalf("ingest response %+v", res)
	}
	if res.Results[1].Reject != string(mapmatch.RejectNoCandidates) {
		t.Fatalf("off-network reject %+v", res.Results[1])
	}
	if res.Results[2].Reject != gps.RejectUntimed {
		t.Fatalf("untimed reject %+v", res.Results[2])
	}

	// No roadnet attached → 422 with the typed error.
	ix, err := cinct.Build([][]uint32{{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng.Register("bare", ix)
	_, err = fx.client.IngestGPS(ctx, "bare", []gps.Trace{good})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("no-roadnet ingest: %v", err)
	}
}

// TestSubscribeSSELifecycle walks one subscription through the SSE
// stream, the only way to listen: a notification arrives while
// attached; detaching by ctx ends the iterator without an error and
// leaves the subscription alive, so a row appended while nobody is
// attached is delivered on re-attach; cancelling while attached ends
// the iterator cleanly through the stream's "end" event; and attaching
// after the cancel is ErrNotFound.
func TestSubscribeSSELifecycle(t *testing.T) {
	fx := newGPSFixture(t)
	ctx := context.Background()

	path := wireWalk(fx.graph, fx.rng, 3)
	sub, err := fx.client.Subscribe(ctx, "roads", SubscribeRequest{Path: path, Buffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	// appendRow appends path as one new trajectory — exactly one match —
	// and returns its ID.
	appendRow := func() int {
		t.Helper()
		res, err := fx.eng.Append(ctx, "roads", [][]uint32{path}, [][]int64{{1, 2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		return res.FirstID
	}
	// attach consumes the stream on a goroutine until it ends. The
	// buffer holds more than one attach ever yields, so the goroutine
	// never blocks on a test that stopped reading.
	type event struct {
		n   engine.Notification
		err error
	}
	attach := func(ctx context.Context) <-chan event {
		out := make(chan event, 8)
		go func() {
			defer close(out)
			for n, err := range fx.client.Notifications(ctx, "roads", sub.Subscription) {
				out <- event{n, err}
			}
		}()
		return out
	}
	next := func(events <-chan event, what string) (event, bool) {
		t.Helper()
		select {
		case ev, ok := <-events:
			return ev, ok
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: timed out", what)
		}
		return event{}, false
	}
	// Appending before the stream is attached is fine: the row waits
	// in the subscription's buffer.
	first := appendRow()
	detach, cancel := context.WithCancel(ctx)
	events := attach(detach)
	if ev, ok := next(events, "first notification"); !ok || ev.err != nil || ev.n.Trajectory != first {
		t.Fatalf("first notification %+v (open %v), want trajectory %d", ev, ok, first)
	}
	cancel()
	if ev, ok := next(events, "detach"); ok {
		t.Fatalf("after detaching by ctx: %+v, want the iterator to end without an error", ev)
	}
	// The server notices the detach and leaves the buffer alone before
	// the next row lands, so that row can only reach the next consumer.
	select {
	case <-fx.streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the events handler did not return after the client detached")
	}

	buffered := appendRow()
	events = attach(ctx)
	if ev, ok := next(events, "buffered notification"); !ok || ev.err != nil || ev.n.Trajectory != buffered {
		t.Fatalf("after re-attaching: %+v (open %v), want trajectory %d buffered while detached", ev, ok, buffered)
	}
	if err := fx.client.Unsubscribe(ctx, "roads", sub.Subscription); err != nil {
		t.Fatal(err)
	}
	if ev, ok := next(events, "end"); ok {
		t.Fatalf("after cancel: %+v, want the iterator to end at the stream's end event", ev)
	}
	for _, err := range fx.client.Notifications(ctx, "roads", sub.Subscription) {
		if !errors.Is(err, engine.ErrNotFound) {
			t.Fatalf("events after cancel: %v, want ErrNotFound", err)
		}
	}
}

// TestNotificationsStreamDropIsAnError pins that a stream that stops
// without the daemon's "end" event — a daemon that died — yields
// io.ErrUnexpectedEOF after what it delivered, not a clean end.
func TestNotificationsStreamDropIsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: notification\ndata: {\"index\":\"roads\",\"trajectory\":7}\n\n") //nolint:errcheck
	}))
	defer ts.Close()
	var got []engine.Notification
	var errs []error
	for n, err := range NewClient(ts.URL, nil).Notifications(context.Background(), "roads", "s1") {
		if err != nil {
			errs = append(errs, err)
			continue
		}
		got = append(got, n)
	}
	if len(got) != 1 || got[0].Trajectory != 7 {
		t.Fatalf("notifications %+v, want the one the stream carried", got)
	}
	if len(errs) != 1 || !errors.Is(errs[0], io.ErrUnexpectedEOF) {
		t.Fatalf("errors %v, want one io.ErrUnexpectedEOF", errs)
	}
}

// TestSubscribeValidationOverWire maps bad subscriptions to 400/422.
func TestSubscribeValidationOverWire(t *testing.T) {
	fx := newGPSFixture(t)
	ctx := context.Background()

	_, err := fx.client.Subscribe(ctx, "roads", SubscribeRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("empty path: %v", err)
	}
	ix, err := cinct.Build([][]uint32{{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng.Register("plain", ix)
	from := int64(1)
	_, err = fx.client.Subscribe(ctx, "plain", SubscribeRequest{Path: []uint32{1}, From: &from})
	if !errors.As(err, &apiErr) || apiErr.Status != 422 {
		t.Fatalf("interval on spatial: %v", err)
	}
	if _, err := fx.client.Subscribe(ctx, "nosuch", SubscribeRequest{Path: []uint32{1}}); !errors.Is(err, engine.ErrNotFound) {
		t.Fatalf("unknown index: %v", err)
	}
	// The body is decoded like a query's: a misspelt field or trailing
	// data is a 400, not a subscription with a default.
	for _, body := range []string{
		`{"path":[1,2],"ttlSecond":5}`,
		`{"path":[1,2]}{"path":[3]}`,
		`{"path":[1,2]} x`,
	} {
		resp, err := http.Post(fx.url+"/v1/roads/subscribe", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("subscribe %s: HTTP %d, want 400", body, resp.StatusCode)
		}
	}
}
