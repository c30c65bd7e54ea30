// Quickstart: build a CiNCT index over a handful of trajectories and
// run the three core operations — count, find, reconstruct.
package main

import (
	"context"
	"fmt"
	"log"

	"cinct"
)

func main() {
	// Trajectories are sequences of road edge IDs in travel order.
	// These are the paper's four example NCTs (Fig. 1a) with edges
	// A..F numbered 0..5.
	const (
		A, B, C, D, E, F = 0, 1, 2, 3, 4, 5
	)
	trajs := [][]uint32{
		{A, B, E, F}, // T1
		{A, B, C},    // T2
		{B, C},       // T3
		{A, D},       // T4
	}

	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		log.Fatal(err)
	}

	// How many trajectories drove A then B?
	fmt.Println("Count(A→B)   =", ix.Count([]uint32{A, B})) // 2 (T1, T2)
	fmt.Println("Count(B→C)   =", ix.Count([]uint32{B, C})) // 2 (T2, T3)
	fmt.Println("Count(B→A)   =", ix.Count([]uint32{B, A})) // 0 (direction!)

	// Which ones, and where in the trajectory?
	res, err := ix.Search(context.Background(), cinct.Query{Path: []uint32{A, B}})
	if err != nil {
		log.Fatal(err)
	}
	for h, err := range res.All() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("A→B found in trajectory %d at offset %d\n", h.Trajectory, h.Offset)
	}

	// The index is a self-index: the original trajectories can be
	// reconstructed from the compressed form alone.
	t1, err := ix.Trajectory(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("trajectory 0 =", t1)

	// And any sub-path can be decompressed without touching the rest.
	sub, err := ix.SubPath(0, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edges [1,3) of trajectory 0 =", sub)

	s := ix.Stats()
	fmt.Printf("index: %d trajectories, %d distinct edges, %.1f bits/symbol\n",
		s.Trajectories, s.Edges, s.BitsPerSymbol)
}
