package cinct

import (
	"context"
	"math/rand"
	"sync"
	"testing"
)

// TestConcurrentIngest hammers one temporal Writer with concurrent
// appenders, two racing sealers, a tiered compactor and many searchers
// under -race, then asserts the seal and
// compaction boundaries lost and duplicated nothing: every marker
// trajectory appended is found exactly once, and a cursor taken
// mid-churn resumes to a stream that concatenates without gaps or
// repeats.
func TestConcurrentIngest(t *testing.T) {
	marker := []uint32{91, 92, 93}
	w, err := NewTemporalWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		appenders   = 4
		perAppender = 150
	)
	ctx := context.Background()
	var appendWg, wg sync.WaitGroup
	errc := make(chan error, appenders+8)

	for g := 0; g < appenders; g++ {
		appendWg.Add(1)
		go func(g int) {
			defer appendWg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perAppender; i++ {
				tr := append(genTraj(rng), marker...)
				if _, err := w.Append(tr, genTimes(rng, len(tr))); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}

	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() { // sealers racing each other
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Seal(); err != nil {
					errc <- err
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() { // tiered compactor racing seals and searches
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.compact(compactionPolicy{minShards: 2, maxShards: 4, tierRatio: 8}); err != nil {
				errc <- err
				return
			}
		}
	}()

	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := 0
			for i := 0; i < 60; i++ {
				r, err := w.Search(ctx, Query{Path: marker, Kind: CountOnly})
				if err != nil {
					errc <- err
					return
				}
				n, err := r.Count()
				if err != nil {
					errc <- err
					return
				}
				// Appends only add marker hits; a count that shrinks
				// means a seal lost or double-counted rows.
				if n < prev {
					t.Errorf("marker count went backwards: %d after %d", n, prev)
					return
				}
				prev = n
				// Exercise the streaming + paging path too.
				pr, err := w.Search(ctx, Query{Path: marker, Kind: Occurrences, Limit: 10})
				if err != nil {
					errc <- err
					return
				}
				last := Match{Trajectory: -1, Offset: -1}
				for h, herr := range pr.All() {
					if herr != nil {
						errc <- herr
						return
					}
					if !matchLess(last, h.Match) {
						t.Errorf("stream out of canonical order: %v then %v", last, h.Match)
						return
					}
					last = h.Match
				}
				if id := w.NumTrajectories(); id > 0 {
					if _, err := w.Trajectory(id - 1); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}

	// Appenders finish on their own; then stop the sealer and wait for
	// the searchers.
	appendWg.Wait()
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesce: one final seal, then the union must hold exactly every
	// appended marker trajectory once.
	if _, err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	r, err := w.Search(ctx, Query{Path: marker, Kind: Trajectories})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for h, herr := range r.All() {
		if herr != nil {
			t.Fatal(herr)
		}
		if seen[h.Trajectory] {
			t.Fatalf("trajectory %d yielded twice across the seal boundary", h.Trajectory)
		}
		seen[h.Trajectory] = true
	}
	if want := appenders * perAppender; len(seen) != want {
		t.Fatalf("found %d marker trajectories, appended %d (lost across seal)", len(seen), want)
	}
}
