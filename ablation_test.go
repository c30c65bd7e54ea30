package cinct

// Ablation benchmarks for the design choices DESIGN.md calls out:
// RRR block size b (the paper's only tuning knob, §III-C2), the SA
// sample rate behind locate (a library extension, so the paper has no
// figure for it), and compressed vs uncompressed wavelet bit vectors.

import (
	"fmt"
	"io"
	"testing"

	"cinct/internal/trajgen"
)

func ablationCorpus(b *testing.B) [][]uint32 {
	b.Helper()
	cfg := trajgen.Config{GridW: 14, GridH: 14, NumTrajs: 4000, MeanLen: 40, Seed: 77}
	return trajgen.Singapore2(cfg).Trajs
}

// BenchmarkAblationBlockSize sweeps b ∈ {15, 31, 63}: compression
// improves and search slows slightly with b — the paper's Fig. 10
// shows CiNCT nearly flat on both axes.
func BenchmarkAblationBlockSize(b *testing.B) {
	trajs := ablationCorpus(b)
	for _, block := range []int{15, 31, 63} {
		opts := DefaultOptions()
		opts.Block = block
		ix, err := Build(trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		path := trajs[0][:10]
		b.Run(fmt.Sprintf("b%d", block), func(b *testing.B) {
			b.ReportMetric(ix.Stats().BitsPerSymbol, "bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Count(path)
			}
		})
	}
}

// BenchmarkAblationUncompressed compares RRR against plain bit vectors
// inside the HWT (speed floor vs size).
func BenchmarkAblationUncompressed(b *testing.B) {
	trajs := ablationCorpus(b)
	for _, unc := range []bool{false, true} {
		opts := DefaultOptions()
		opts.Uncompressed = unc
		ix, err := Build(trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		path := trajs[0][:10]
		name := "rrr63"
		if unc {
			name = "plain"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(ix.Stats().BitsPerSymbol, "bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Count(path)
			}
		})
	}
}

// BenchmarkAblationSampleRate sweeps the locate sampling rate around
// the default (40): a located occurrence walks (rate−1)/2 LF steps on
// average, so Find latency grows and space shrinks with the rate. Each
// rate reports the served bits per symbol (the saved v3 file), the
// locate section's share of them, and the mean LF steps per locate over
// every row.
func BenchmarkAblationSampleRate(b *testing.B) {
	trajs := ablationCorpus(b)
	// Short paths that occur often, so every find locates.
	var paths [][]uint32
	for _, tr := range trajs {
		if len(tr) >= 2 && len(paths) < 64 {
			paths = append(paths, tr[:2])
		}
	}
	for _, rate := range []int{32, 36, 40, 48, 64} {
		opts := DefaultOptions()
		opts.SampleRate = rate
		ix, err := Build(trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		served, err := ix.Save(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		var steps int64
		for _, sh := range ix.shards {
			for j := 0; j < sh.core.Len(); j++ {
				_, lf := sh.core.LocateSteps(int64(j))
				steps += lf
			}
		}
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := search(ix, Query{Path: paths[i%len(paths)], Limit: 10}); err != nil {
					b.Fatal(err)
				}
			}
			s := ix.Stats()
			b.ReportMetric(float64(8*served)/float64(s.TextLen), "served-bits/sym")
			b.ReportMetric(float64(s.LocateBits)/float64(s.TextLen), "locate-bits/sym")
			b.ReportMetric(float64(steps)/float64(s.TextLen), "lf-steps/locate")
		})
	}
}

// BenchmarkAblationRandomLabeling quantifies Theorem 3's practical
// value: random labels cost both bits and time.
func BenchmarkAblationRandomLabeling(b *testing.B) {
	trajs := ablationCorpus(b)
	for _, random := range []bool{false, true} {
		opts := DefaultOptions()
		opts.RandomLabeling = random
		opts.Seed = 5
		ix, err := Build(trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		path := trajs[0][:10]
		name := "bigram"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(ix.Stats().BitsPerSymbol, "bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Count(path)
			}
		})
	}
}
