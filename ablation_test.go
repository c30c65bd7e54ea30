package cinct

// Ablation benchmarks for the design choices DESIGN.md calls out:
// RRR block size b (the paper's only tuning knob, §III-C2), the SA
// sample rate behind locate (a library extension, so the paper has no
// figure for it), and compressed vs uncompressed wavelet bit vectors.

import (
	"fmt"
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

// BenchmarkAblationSampleRate sweeps the locate sampling rate: Find
// walks at most rate LF steps per hit, so latency grows and space
// shrinks with the rate.
func BenchmarkAblationSampleRate(b *testing.B) {
	trajs := ablationCorpus(b)
	for _, rate := range []int{16, 64, 256} {
		opts := DefaultOptions()
		opts.SampleRate = rate
		ix, err := Build(trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		path := trajs[0][:6]
		b.Run(fmt.Sprintf("rate%d", rate), func(b *testing.B) {
			s := ix.Stats()
			b.ReportMetric(float64(s.LocateBits)/float64(s.TextLen), "locate-bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := search(ix, Query{Path: path, Limit: 10}); err != nil {
					b.Fatal(err)
				}
			}
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
