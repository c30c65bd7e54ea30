package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinct/server"
)

// pass is the outcome of one closed-loop replay of an operation list.
type pass struct {
	wall   time.Duration
	lat    []time.Duration // by operation index; 0 for a failed one
	failed int
	cpu    float64 // daemon CPU seconds spent during the pass
}

// runPass replays ops once against the daemon: loadConns workers each
// take the next unclaimed operation, send it, and wait for the decoded
// page before taking another. keep lists the operation indexes whose
// answers are retained for the oracle check.
func runPass(d *daemon, index string, ops []op, keep map[int]*answer) (pass, error) {
	p := pass{lat: make([]time.Duration, len(ops))}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return p, err
	}
	var next, failed atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	t0 := time.Now()
	for w := 0; w < loadConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				s := time.Now()
				page, err := d.client.SearchPage(ctx, index, ops[i].q)
				if err != nil {
					failed.Add(1)
					continue
				}
				p.lat[i] = time.Since(s)
				if a := keep[i]; a != nil {
					*a = pageAnswer(page)
				}
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(t0)
	p.failed = int(failed.Load())
	cpu1, err := d.cpuSeconds()
	p.cpu = cpu1 - cpu0
	return p, err
}

func pageAnswer(p *server.QueryPage) answer { return answer{count: p.Count, hits: p.Hits} }

// percentile is the nearest-rank q-quantile of sorted durations, in
// microseconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i].Nanoseconds()) / 1e3
}

func sortedCopy(d []time.Duration) []time.Duration {
	out := make([]time.Duration, 0, len(d))
	for _, v := range d {
		if v > 0 {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of a non-empty slice (the mean of the two middle values for an
// even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is (max−min)/median over per-pass values: how far the passes
// of one run disagree.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	if m := median(v); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

func medianDur(d []time.Duration) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x.Nanoseconds())
	}
	return median(v)
}
