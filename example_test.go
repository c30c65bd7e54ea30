package cinct_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/gps"
	"cinct/internal/mapmatch"
	"cinct/internal/roadnet"
)

// The paper's running example (Fig. 1a): four trajectories over road
// segments A..F = 0..5.
func paperTrajectories() [][]uint32 {
	return [][]uint32{
		{0, 1, 4, 5}, // T1 = A B E F
		{0, 1, 2},    // T2 = A B C
		{1, 2},       // T3 = B C
		{0, 3},       // T4 = A D
	}
}

func ExampleBuild() {
	ix, err := cinct.Build(paperTrajectories(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ix.NumTrajectories(), "trajectories over", ix.NumEdges(), "edges")
	// Output: 4 trajectories over 6 edges
}

func ExampleIndex_Count() {
	ix, err := cinct.Build(paperTrajectories(), nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ix.Count([]uint32{0, 1})) // A→B: trips T1 and T2
	fmt.Println(ix.Count([]uint32{1, 0})) // B→A: never driven
	// Output:
	// 2
	// 0
}

func ExampleIndex_Search() {
	ix, err := cinct.Build(paperTrajectories(), nil)
	if err != nil {
		log.Fatal(err)
	}
	// The distinct trajectories that drove B→C.
	res, err := ix.Search(context.Background(), cinct.Query{Path: []uint32{1, 2}, Kind: cinct.Trajectories})
	if err != nil {
		log.Fatal(err)
	}
	var ids []int
	for h, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		ids = append(ids, h.Trajectory)
	}
	fmt.Println(ids)
	// Output: [1 2]
}

func ExampleIndex_SubPath() {
	ix, err := cinct.Build(paperTrajectories(), nil)
	if err != nil {
		log.Fatal(err)
	}
	sub, err := ix.SubPath(0, 1, 3) // edges [1,3) of T1
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sub)
	// Output: [1 4]
}

func ExampleLoad() {
	ix, err := cinct.Build(paperTrajectories(), nil)
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.Save(&buf); err != nil {
		log.Fatal(err)
	}
	loaded, err := cinct.Load(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(loaded.Count([]uint32{0, 1}))
	// Output: 2
}

// Example_search shows the unified Query API: one descriptor for
// every retrieval, executed by Search as a lazy, cursor-resumable
// stream. The same descriptor shape drives the engine, the
// /v1/{index}/query endpoint, and the HTTP client.
func Example_search() {
	trajs := paperTrajectories()
	times := [][]int64{
		{100, 160, 220, 280},
		{90, 150, 210},
		{400, 460},
		{100, 170},
	}
	ix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Count A→B occurrences.
	r, err := ix.Search(ctx, cinct.Query{Path: []uint32{0, 1}, Kind: cinct.CountOnly})
	if err != nil {
		log.Fatal(err)
	}
	n, _ := r.Count()
	fmt.Println("count:", n)

	// Stream occurrences lazily, stopping after the first hit — the
	// iterator does no further locate-or-decode work past the break.
	r, err = ix.Search(ctx, cinct.Query{Path: []uint32{0, 1}, Kind: cinct.Occurrences})
	if err != nil {
		log.Fatal(err)
	}
	for h, err := range r.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("first: trajectory %d @ offset %d\n", h.Trajectory, h.Offset)
		break
	}
	// Resume exactly where the loop stopped, on a fresh query.
	r2, err := ix.Search(ctx, cinct.Query{Path: []uint32{0, 1}, Kind: cinct.Occurrences, Cursor: r.Cursor()})
	if err != nil {
		log.Fatal(err)
	}
	for h, err := range r2.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("resumed: trajectory %d @ offset %d\n", h.Trajectory, h.Offset)
	}

	// A strict path query is the same descriptor plus an Interval.
	r, err = ix.Search(ctx, cinct.Query{
		Path:     []uint32{1, 2},
		Interval: &cinct.Interval{From: 100, To: 300},
		Kind:     cinct.Trajectories,
	})
	if err != nil {
		log.Fatal(err)
	}
	for h, err := range r.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("in window: trajectory %d entered at t=%d\n", h.Trajectory, h.EnteredAt)
	}
	// Output:
	// count: 2
	// first: trajectory 0 @ offset 0
	// resumed: trajectory 1 @ offset 0
	// in window: trajectory 1 entered at t=150
}

// Example_ingest shows the live write path: a Writer accepts appended
// trajectories into an in-memory delta that is immediately queryable,
// and Seal compacts the delta into a real compressed shard without
// changing any answer (global IDs are stable across seals).
func Example_ingest() {
	w, err := cinct.NewWriterAt(mustBuild(paperTrajectories()), cinct.WriterConfig{})
	if err != nil {
		log.Fatal(err)
	}
	// A new vehicle drives A→B→C; it is searchable before any seal.
	id, err := w.Append([]uint32{0, 1, 2}, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("appended as trajectory", id)

	count := func() int {
		r, err := w.Search(context.Background(), cinct.Query{Path: []uint32{0, 1}, Kind: cinct.CountOnly})
		if err != nil {
			log.Fatal(err)
		}
		n, err := r.Count()
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	fmt.Println("A->B occurrences with hot delta:", count())

	// Compact the delta into a compressed shard: same answers, and the
	// sealed state can now be persisted with Snapshot + Save.
	sealed, err := w.Seal()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sealed %d trajectories; A->B occurrences: %d\n", sealed, count())
	// Output:
	// appended as trajectory 4
	// A->B occurrences with hot delta: 3
	// sealed 1 trajectories; A->B occurrences: 3
}

func mustBuild(trajs [][]uint32) *cinct.Index {
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		log.Fatal(err)
	}
	return ix
}

func ExampleBuildTemporal() {
	trajs := paperTrajectories()
	times := [][]int64{
		{100, 160, 220, 280},
		{90, 150, 210},
		{400, 460},
		{100, 170},
	}
	ix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Who drove B→C between t=100 and t=300? Only T2 (entered B at 150);
	// T3 entered B at 400.
	res, err := ix.Search(context.Background(), cinct.Query{
		Path:     []uint32{1, 2},
		Interval: &cinct.Interval{From: 100, To: 300},
	})
	if err != nil {
		log.Fatal(err)
	}
	for h, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trajectory %d entered at t=%d\n", h.Trajectory, h.EnteredAt)
	}
	// Output: trajectory 1 entered at t=150
}

// Example_gpsIngest walks the raw-GPS pipeline end to end: a road
// network, a noisy device trace simulated along a known path, a
// standing query registered before the ingest, and the map-matched
// result landing as a queryable trajectory plus one push
// notification.
func Example_gpsIngest() {
	g := roadnet.Grid(6, 6, 3)
	rng := rand.New(rand.NewSource(7))

	// The ground-truth path: a U-turn-free walk over the grid
	// (immediate reversals are unrecoverable for a position-only
	// matcher).
	walk := []roadnet.EdgeID{roadnet.EdgeID(rng.Intn(g.NumEdges()))}
	for len(walk) < 8 {
		cur := walk[len(walk)-1]
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
		walk = append(walk, choices[rng.Intn(len(choices))])
	}

	// A one-row base corpus on the same network, so the index exists.
	base := make([]uint32, len(walk))
	times := make([]int64, len(walk))
	for i, e := range walk {
		base[i] = uint32(e)
		times[i] = int64(100 + 10*i)
	}
	tix, err := cinct.BuildTemporal([][]uint32{base}, [][]int64{times}, nil)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.New(engine.Options{SealThreshold: -1})
	defer eng.CloseAll()
	defer eng.Shutdown()
	eng.Register("roads", tix.Index)
	eng.AttachRoadnet("roads", g, mapmatch.Config{})

	// A standing query on the path, registered before anything lands.
	sub, err := eng.Subscribe("roads", engine.Predicate{Path: base}, engine.SubscribeOptions{})
	if err != nil {
		log.Fatal(err)
	}

	// A noisy timed trace simulated along the walk, map-matched and
	// appended in one call.
	tr := gps.Simulate(g, walk, 0.02, 50_000, 15, rng)
	res, err := eng.IngestGPS(context.Background(), "roads", []gps.Trace{tr})
	if err != nil {
		log.Fatal(err)
	}
	r := res.Results[0]
	fmt.Printf("accepted as trajectory %d (%d edges)\n", r.ID, r.Edges)

	// The append path tested the new row against the predicate and
	// pushed the match.
	n := <-sub.C()
	fmt.Printf("notified: trajectory %d at offset %d, entered at t=%d\n",
		n.Trajectory, n.Offset, n.EnteredAt)
	// Output:
	// accepted as trajectory 1 (8 edges)
	// notified: trajectory 1 at offset 0, entered at t=50000
}
