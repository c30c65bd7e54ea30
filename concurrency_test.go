package cinct

import (
	"sync"
	"testing"

	"cinct/internal/trajgen"
)

// TestConcurrentQueries hammers one index from many goroutines; run
// with -race to verify the immutability claim in the Index docs.
func TestConcurrentQueries(t *testing.T) {
	cfg := trajgen.Config{GridW: 8, GridH: 8, NumTrajs: 200, MeanLen: 25, Seed: 13}
	d := trajgen.Singapore2(cfg)
	ix, err := Build(d.Trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth, computed single-threaded.
	paths := make([][]uint32, 0, 50)
	want := make([]int, 0, 50)
	for k := 0; k < 50; k++ {
		tr := d.Trajs[k%len(d.Trajs)]
		if len(tr) < 4 {
			continue
		}
		p := tr[:4]
		paths = append(paths, p)
		want = append(want, ix.Count(p))
	}

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(paths)
				if got := ix.Count(paths[i]); got != want[i] {
					errs <- "Count changed under concurrency"
					return
				}
				if _, err := search(ix, Query{Path: paths[i], Limit: 5}); err != nil {
					errs <- err.Error()
					return
				}
				if _, err := ix.Trajectory(i % ix.NumTrajectories()); err != nil {
					errs <- err.Error()
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
