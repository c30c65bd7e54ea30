package engine

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"cinct"
	"cinct/internal/gps"
	"cinct/internal/mapmatch"
	"cinct/internal/roadnet"
)

// gridWalk builds a connected random walk on g avoiding immediate
// U-turns (geometrically unrecoverable for any position-only matcher).
func gridWalk(g *roadnet.Graph, rng *rand.Rand, length int) []roadnet.EdgeID {
	cur := roadnet.EdgeID(rng.Intn(g.NumEdges()))
	path := []roadnet.EdgeID{cur}
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
			choices = g.NextEdges(cur)
			if len(choices) == 0 {
				break
			}
		}
		cur = choices[rng.Intn(len(choices))]
		path = append(path, cur)
	}
	return path
}

func edgesOf(path []roadnet.EdgeID) []uint32 {
	out := make([]uint32, len(path))
	for i, e := range path {
		out[i] = uint32(e)
	}
	return out
}

// gpsEngine builds an engine serving one temporal index whose corpus
// lives on a roadnet grid, with the grid attached for GPS ingest.
func gpsEngine(t *testing.T, opts Options) (*Engine, *roadnet.Graph, *rand.Rand) {
	t.Helper()
	g := roadnet.Grid(8, 8, 31)
	rng := rand.New(rand.NewSource(32))
	var trajs [][]uint32
	var times [][]int64
	for i := 0; i < 12; i++ {
		row := edgesOf(gridWalk(g, rng, 10))
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
	e := New(opts)
	serveIndex(t, e, "roads", tix.Index)
	t.Cleanup(e.Shutdown)
	e.AttachRoadnet("roads", g, mapmatch.Config{})
	return e, g, rng
}

// TestIngestGPSEndToEnd is the differential core: a simulated noisy
// trace over a known edge path must ingest, be findable via Search,
// and reconstruct to exactly the ground-truth path.
func TestIngestGPSEndToEnd(t *testing.T) {
	e, g, rng := gpsEngine(t, Options{SealThreshold: -1})
	ctx := context.Background()

	path := gridWalk(g, rng, 12)
	truth := edgesOf(path)
	tr := gps.Simulate(g, path, 0.02, 50_000, 15, rng)

	res, err := e.IngestGPS(ctx, "roads", []gps.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 0 {
		t.Fatalf("accepted %d rejected %d, want 1/0", res.Accepted, res.Rejected)
	}
	tres := res.Results[0]
	if !tres.Accepted || tres.ID != 12 {
		t.Fatalf("trace result %+v, want accepted id 12", tres)
	}
	if res.Points != len(tr.Points) {
		t.Fatalf("points %d, want %d", res.Points, len(tr.Points))
	}

	// The matched trajectory reconstructs to the ground truth.
	got, err := e.Trajectory(ctx, "roads", tres.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(truth) {
		t.Fatalf("trajectory %v, want %v", got, truth)
	}
	for i := range truth {
		if got[i] != truth[i] {
			t.Fatalf("edge %d: %d != %d", i, got[i], truth[i])
		}
	}

	// And it is findable through the ordinary query path.
	ids, err := search(ctx, e, "roads", cinct.Query{Path: truth, Kind: cinct.Trajectories})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range ids {
		if h.Trajectory == tres.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("Trajectories(%v) = %v, missing %d", truth, ids, tres.ID)
	}

	// Interval query: the trace's timestamps landed (entry time of the
	// first edge is the first observation's time).
	n, err := searchCount(ctx, e, "roads", cinct.Query{Path: truth[:2], Interval: &cinct.Interval{From: 50_000, To: 50_100}, Kind: cinct.CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("CountInInterval = %d, want 1", n)
	}
}

// TestIngestGPSPerTraceResults: rejects are per-trace and typed; one
// bad trace does not poison the batch.
func TestIngestGPSPerTraceResults(t *testing.T) {
	e, g, rng := gpsEngine(t, Options{SealThreshold: -1})
	ctx := context.Background()

	good := gps.Simulate(g, gridWalk(g, rng, 8), 0.02, 1000, 10, rng)
	offNetwork := gps.Trace{Points: []gps.Point{{Lat: 900, Lon: 900, T: 1}, {Lat: 901, Lon: 900, T: 2}}}
	untimed := gps.Simulate(g, gridWalk(g, rng, 8), 0.02, 0, 0, rng)
	backwards := gps.Simulate(g, gridWalk(g, rng, 8), 0.02, 1000, 10, rng)
	backwards.Points[2].T = 5

	res, err := e.IngestGPS(ctx, "roads", []gps.Trace{good, offNetwork, untimed, backwards})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 3 {
		t.Fatalf("accepted %d rejected %d, want 1/3: %+v", res.Accepted, res.Rejected, res.Results)
	}
	if !res.Results[0].Accepted {
		t.Fatalf("good trace rejected: %+v", res.Results[0])
	}
	wantReasons := []string{"", string(mapmatch.RejectNoCandidates), gps.RejectUntimed, gps.RejectBadTimestamps}
	for i := 1; i < 4; i++ {
		if res.Results[i].Accepted || res.Results[i].Reject != wantReasons[i] {
			t.Fatalf("trace %d result %+v, want reject %q", i, res.Results[i], wantReasons[i])
		}
	}

	// An all-reject batch is not an error.
	res, err = e.IngestGPS(ctx, "roads", []gps.Trace{offNetwork})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 0 || res.Rejected != 1 {
		t.Fatalf("all-reject batch: %+v", res)
	}
}

func TestIngestGPSErrors(t *testing.T) {
	e, _, rng := gpsEngine(t, Options{SealThreshold: -1})
	ctx := context.Background()

	if _, err := e.IngestGPS(ctx, "nosuch", nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown index: %v, want ErrNotFound", err)
	}

	// An index with no roadnet (and no default) fails typed.
	g2 := roadnet.Grid(4, 4, 33)
	tr := gps.Simulate(g2, gridWalk(g2, rng, 5), 0.02, 1, 1, rng)
	ix, err := cinct.Build([][]uint32{{1, 2, 3}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveIndex(t, e, "bare", ix)
	if _, err := e.IngestGPS(ctx, "bare", []gps.Trace{tr}); !errors.Is(err, ErrNoRoadnet) {
		t.Fatalf("no roadnet: %v, want ErrNoRoadnet", err)
	}

	// A default ("") binding serves indexes without their own.
	e.AttachRoadnet("", g2, mapmatch.Config{})
	res, err := e.IngestGPS(ctx, "bare", []gps.Trace{tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 {
		t.Fatalf("default binding ingest: %+v", res)
	}
	// Spatial index: the timed trace lands without a timestamp column.
	got, err := e.Trajectory(ctx, "bare", res.Results[0].ID)
	if err != nil || len(got) == 0 {
		t.Fatalf("Trajectory after spatial GPS ingest: %v %v", got, err)
	}
}

func TestLoadRoadnetFromContainer(t *testing.T) {
	g := roadnet.Grid(5, 5, 35)
	dir := t.TempDir()
	path := filepath.Join(dir, "net.road")
	if err := g.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	e := New(Options{})
	defer e.Shutdown()
	if err := e.LoadRoadnet("any", path); err != nil {
		t.Fatal(err)
	}
	if e.Roadnet("any") == nil {
		t.Fatal("roadnet not attached")
	}
	if e.Roadnet("other") != nil {
		t.Fatal("binding leaked to other index")
	}
	if err := e.LoadRoadnet("x", filepath.Join(dir, "missing.road")); err == nil {
		t.Fatal("missing file should fail")
	}
}
