// Fleet analysis: the workload the paper's introduction motivates —
// a city operator holds millions of taxi trajectories and asks
// corridor questions: "how much traffic traversed this sequence of
// road segments, and which trips were they?"
//
// This example generates a synthetic fleet on a city grid, indexes it,
// and then answers corridor queries of growing length, showing how the
// match count narrows while query time stays microsecond-scale.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cinct"
	"cinct/internal/trajgen"
)

func main() {
	// A fleet of 20k trips on a 26x26-intersection downtown grid.
	cfg := trajgen.Config{GridW: 26, GridH: 26, NumTrajs: 20000, MeanLen: 50, Seed: 7}
	fmt.Println("generating fleet (turn-biased city traffic)...")
	fleet := trajgen.Singapore2(cfg)

	t0 := time.Now()
	ix, err := cinct.Build(fleet.Trajs, nil)
	if err != nil {
		log.Fatal(err)
	}
	s := ix.Stats()
	fmt.Printf("indexed %d trips (%d road-segment traversals) in %v\n",
		s.Trajectories, s.TextLen, time.Since(t0).Round(time.Millisecond))
	fmt.Printf("resident size: %.2f bits per traversal (raw edge IDs: 32)\n\n",
		s.BitsPerSymbol)

	// Take one busy trip as the corridor source and extend the queried
	// corridor one segment at a time.
	corridor := fleet.Trajs[0]
	if len(corridor) > 12 {
		corridor = corridor[:12]
	}
	fmt.Println("corridor drill-down (same start, growing length):")
	for l := 2; l <= len(corridor); l += 2 {
		q := corridor[:l]
		t1 := time.Now()
		n := ix.Count(q)
		dt := time.Since(t1)
		fmt.Printf("  len %2d: %6d trips traverse it   (%8v)\n", l, n, dt)
	}

	// Full report for the length-6 corridor: which trips, and at what
	// point of their route they entered it.
	q := corridor[:6]
	res, err := ix.Search(context.Background(), cinct.Query{Path: q, Limit: 10})
	if err != nil {
		log.Fatal(err)
	}
	var hits []cinct.Hit
	fmt.Println("\nfirst trips through the 6-segment corridor (up to 10):")
	for h, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		hits = append(hits, h)
		total := ix.TrajectoryLen(h.Trajectory)
		fmt.Printf("  trip %5d entered at segment %3d of its %3d-segment route\n",
			h.Trajectory, h.Offset, total)
	}

	// Verify one report by decompressing just that slice of the trip.
	if len(hits) > 0 {
		h := hits[0]
		sub, err := ix.SubPath(h.Trajectory, h.Offset, h.Offset+len(q))
		if err != nil {
			log.Fatal(err)
		}
		match := true
		for i := range q {
			if sub[i] != q[i] {
				match = false
			}
		}
		fmt.Printf("\nspot-check: decompressed slice of trip %d matches corridor: %v\n",
			hits[0].Trajectory, match)
	}
}
