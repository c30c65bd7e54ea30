// Command trajgen generates the dataset analogs used by the
// experiments (see DESIGN.md §3 for what each substitutes) and writes
// them as text corpora: one trajectory per line, space-separated road
// edge IDs.
//
// Usage:
//
//	trajgen -dataset singapore2 -trajs 5000 -meanlen 45 -out corpus.txt
//	trajgen -dataset randwalk -sigma 65536 -deg 4 -total 1000000 -out rw.txt
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"cinct/internal/trajgen"
	"cinct/internal/trajio"
)

func main() {
	var (
		dataset = flag.String("dataset", "singapore2",
			"one of: singapore, singapore2, roma, mogen, chess, randwalk")
		out      = flag.String("out", "", "output file (default stdout)")
		timesOut = flag.String("times", "", "also write synthetic timestamp columns to this file")
		trajs    = flag.Int("trajs", 2000, "number of trajectories")
		meanLen  = flag.Int("meanlen", 45, "mean trajectory length")
		gridW    = flag.Int("gridw", 26, "road grid width")
		gridH    = flag.Int("gridh", 26, "road grid height")
		seed     = flag.Int64("seed", 1, "generator seed")
		sigma    = flag.Int("sigma", 1<<14, "randwalk: alphabet size")
		deg      = flag.Int("deg", 4, "randwalk: average out-degree")
		total    = flag.Int("total", 1<<20, "randwalk: total symbols")
	)
	flag.Parse()

	cfg := trajgen.Config{
		GridW: *gridW, GridH: *gridH,
		NumTrajs: *trajs, MeanLen: *meanLen, Seed: *seed,
	}
	var d trajgen.Dataset
	switch *dataset {
	case "singapore":
		d = trajgen.Singapore(cfg)
	case "singapore2":
		d = trajgen.Singapore2(cfg)
	case "roma":
		d = trajgen.Roma(cfg)
	case "mogen":
		d = trajgen.MOGen(cfg)
	case "chess":
		d = trajgen.Chess(cfg)
	case "randwalk":
		d = trajgen.RandWalk(*sigma, *deg, *total, *seed)
	default:
		fmt.Fprintf(os.Stderr, "trajgen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trajgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := trajio.Write(w, d.Trajs); err != nil {
		fmt.Fprintf(os.Stderr, "trajgen: %v\n", err)
		os.Exit(1)
	}
	if *timesOut != "" {
		tf, err := os.Create(*timesOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trajgen: %v\n", err)
			os.Exit(1)
		}
		defer tf.Close()
		if err := trajio.WriteTimes(tf, synthTimes(d.Trajs, *seed)); err != nil {
			fmt.Fprintf(os.Stderr, "trajgen: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "trajgen: %s: %d trajectories, %d symbols\n",
		d.Name, len(d.Trajs), d.TotalSymbols())
}

// synthTimes fabricates a timestamp column per trajectory (entry time
// of each edge, seconds): departures spread over a day, per-edge
// travel times of 5–64s. It exists so one trajgen run can feed both
// cinct build with and without -times.
func synthTimes(trajs [][]uint32, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed ^ 0x7467656e)) // independent of the corpus stream
	times := make([][]int64, len(trajs))
	for k, tr := range trajs {
		col := make([]int64, len(tr))
		at := rng.Int63n(86_400)
		for i := range col {
			col[i] = at
			at += 5 + rng.Int63n(60)
		}
		times[k] = col
	}
	return times
}
