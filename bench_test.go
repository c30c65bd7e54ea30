package cinct

// One benchmark family per table/figure of the paper's evaluation
// (§VI). Sizes are reported as custom metrics (bits/sym) alongside
// timings, so a single `go test -bench=. -benchmem` regenerates the
// quantitative skeleton of every experiment. cmd/experiments prints
// the same data as formatted rows, at selectable scale.

import (
	"fmt"
	"sync"
	"testing"

	"cinct/internal/bwzip"
	"cinct/internal/etgraph"
	"cinct/internal/experiments"
	"cinct/internal/fmindex"
	"cinct/internal/mel"
	"cinct/internal/press"
	"cinct/internal/repair"
	"cinct/internal/trajgen"
)

// Bench-scale corpora are built once and shared.
var (
	benchOnce sync.Once
	benchSets map[string]*experiments.Prepared
)

func benchData(b *testing.B, name string) *experiments.Prepared {
	b.Helper()
	benchOnce.Do(func() {
		benchSets = map[string]*experiments.Prepared{}
		cfg := func(seed int64, n, l int) trajgen.Config {
			return trajgen.Config{GridW: 16, GridH: 16, NumTrajs: n, MeanLen: l, Seed: seed}
		}
		gens := map[string]trajgen.Dataset{
			"singapore":  trajgen.Singapore(cfg(201, 3000, 45)),
			"singapore2": trajgen.Singapore2(cfg(201, 3000, 45)),
			"roma":       trajgen.Roma(cfg(203, 800, 40)),
			"mogen":      trajgen.MOGen(cfg(204, 3000, 40)),
			"chess":      trajgen.Chess(cfg(205, 12000, 10)),
			"randwalk":   trajgen.RandWalk(1<<12, 4, 400000, 206),
		}
		for n, d := range gens {
			p, err := experiments.Prepare(d)
			if err != nil {
				panic(err)
			}
			benchSets[n] = p
		}
	})
	p, ok := benchSets[name]
	if !ok {
		b.Fatalf("unknown bench dataset %q", name)
	}
	return p
}

// BenchmarkTable3Stats regenerates the Table III statistics line per
// dataset.
func BenchmarkTable3Stats(b *testing.B) {
	for _, name := range []string{"singapore", "singapore2", "roma", "mogen", "chess"} {
		b.Run(name, func(b *testing.B) {
			p := benchData(b, name)
			var row experiments.Table3Row
			for i := 0; i < b.N; i++ {
				row = experiments.Table3(p)
			}
			b.ReportMetric(row.H0T, "H0(T)")
			b.ReportMetric(row.H0Phi, "H0(phi)")
			b.ReportMetric(row.AvgDeg, "avg-deg")
		})
	}
}

// BenchmarkFig10Search measures one suffix-range query of length 20
// per iteration, for every dataset × method, reporting index size as
// bits/sym.
func BenchmarkFig10Search(b *testing.B) {
	for _, name := range []string{"singapore", "singapore2", "roma", "mogen", "chess"} {
		p := benchData(b, name)
		queries := p.SampleQueries(256, 20, 10)
		for _, built := range experiments.BuildAll(p, 63) {
			built := built
			b.Run(fmt.Sprintf("%s/%s", name, built.Name), func(b *testing.B) {
				b.ReportMetric(built.BitsPerSymbol, "bits/sym")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					built.Search(queries[i%len(queries)])
				}
			})
		}
	}
}

// BenchmarkFig11SearchLength sweeps the pattern length on the
// Singapore analog (CiNCT vs the two compressed baselines).
func BenchmarkFig11SearchLength(b *testing.B) {
	p := benchData(b, "singapore")
	builts := experiments.BuildAll(p, 63)
	for _, plen := range []int{2, 5, 10, 20} {
		queries := p.SampleQueries(256, plen, int64(plen))
		for _, built := range builts {
			built := built
			b.Run(fmt.Sprintf("P%d/%s", plen, built.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					built.Search(queries[i%len(queries)])
				}
			})
		}
	}
}

// BenchmarkFig12SigmaScaling measures CiNCT and UFMI as the alphabet
// grows with d̄ = 4 fixed (σ-independence, Theorem 5).
func BenchmarkFig12SigmaScaling(b *testing.B) {
	for _, sigma := range []int{1 << 10, 1 << 12, 1 << 14} {
		d := trajgen.RandWalk(sigma, 4, 100*sigma, int64(sigma))
		p, err := experiments.Prepare(d)
		if err != nil {
			b.Fatal(err)
		}
		queries := p.SampleQueries(256, 20, 12)
		_, cinctIx := experiments.BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
		ufmi := experiments.BuildBaseline(p, fmindex.UFMI, 63)
		for _, built := range []experiments.Built{cinctIx, ufmi} {
			built := built
			b.Run(fmt.Sprintf("sigma%d/%s", sigma, built.Name), func(b *testing.B) {
				b.ReportMetric(built.BitsPerSymbol, "bits/sym")
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					built.Search(queries[i%len(queries)])
				}
			})
		}
	}
}

// BenchmarkFig13DegreeScaling measures CiNCT as the ET-graph densifies
// (the sparsity assumption's limits).
func BenchmarkFig13DegreeScaling(b *testing.B) {
	for _, deg := range []int{4, 16, 64} {
		d := trajgen.RandWalk(1<<12, deg, 400000, int64(deg))
		p, err := experiments.Prepare(d)
		if err != nil {
			b.Fatal(err)
		}
		queries := p.SampleQueries(256, 20, 13)
		_, built := experiments.BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
		b.Run(fmt.Sprintf("deg%d/CiNCT", deg), func(b *testing.B) {
			b.ReportMetric(built.BitsPerSymbol, "bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built.Search(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkFig14Labeling compares the optimal bigram-sorted labeling
// against random labeling (Theorem 3 in practice).
func BenchmarkFig14Labeling(b *testing.B) {
	p := benchData(b, "singapore2")
	queries := p.SampleQueries(256, 20, 14)
	for _, strat := range []struct {
		name string
		s    etgraph.Strategy
	}{{"bigram", etgraph.BigramSorted}, {"random", etgraph.RandomShuffle}} {
		_, built := experiments.BuildCiNCT(p, 63, strat.s, 99)
		b.Run(strat.name, func(b *testing.B) {
			b.ReportMetric(built.BitsPerSymbol, "bits/sym")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				built.Search(queries[i%len(queries)])
			}
		})
	}
}

// BenchmarkFig15Extract measures sub-path extraction per symbol
// (1024-symbol extracts from row 0).
func BenchmarkFig15Extract(b *testing.B) {
	for _, name := range []string{"singapore", "roma", "mogen", "chess"} {
		p := benchData(b, name)
		for _, built := range experiments.BuildAll(p, 63) {
			built := built
			b.Run(fmt.Sprintf("%s/%s", name, built.Name), func(b *testing.B) {
				const l = 1024
				for i := 0; i < b.N; i++ {
					built.Extract(0, l)
				}
				// ns/op divided by l gives the paper's ns/symbol.
				b.ReportMetric(float64(l), "symbols/op")
			})
		}
	}
}

// BenchmarkFig16Construction measures full index construction
// (including BWT) per method on the Singapore analog.
func BenchmarkFig16Construction(b *testing.B) {
	p := benchData(b, "singapore")
	b.Run("CiNCT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			experiments.BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
		}
	})
	for _, m := range fmindex.Methods {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				experiments.BuildBaseline(p, m, 63)
			}
		})
	}
	b.Run("BWT-shared-stage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Prepare(p.Dataset); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable4Compression times each compressor and reports its
// ratio.
func BenchmarkTable4Compression(b *testing.B) {
	p := benchData(b, "singapore2")
	var symbols int64
	for _, tr := range p.Dataset.Trajs {
		symbols += int64(len(tr))
	}
	raw := float64(symbols * 32)

	b.Run("CiNCT", func(b *testing.B) {
		var bits int
		for i := 0; i < b.N; i++ {
			ix, _ := experiments.BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
			bits = ix.Sizes().Total()
		}
		b.ReportMetric(raw/float64(bits), "ratio")
	})
	b.Run("MEL", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			l := mel.Build(p.Dataset.Graph, p.Dataset.Trajs)
			bits = l.CompressedSizeBits(p.Dataset.Trajs)
		}
		b.ReportMetric(raw/float64(bits), "ratio")
	})
	b.Run("Re-Pair", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			bits = repair.Compress(p.Corpus.Text, p.Corpus.Sigma).SizeBits()
		}
		b.ReportMetric(raw/float64(bits), "ratio")
	})
	b.Run("bwzip", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			bits = bwzip.Compress(p.Corpus.Text, p.Corpus.Sigma).SizeBits()
		}
		b.ReportMetric(raw/float64(bits), "ratio")
	})
	b.Run("PRESS", func(b *testing.B) {
		var bits int64
		for i := 0; i < b.N; i++ {
			bits = press.Compress(p.Dataset.Graph, p.Dataset.Trajs).SizeBits()
		}
		b.ReportMetric(raw/float64(bits), "ratio")
	})
}

// BenchmarkTable5Entropy recomputes the RML-vs-MEL entropy comparison.
func BenchmarkTable5Entropy(b *testing.B) {
	for _, name := range []string{"singapore2", "roma"} {
		b.Run(name, func(b *testing.B) {
			p := benchData(b, name)
			var row experiments.Table5Row
			for i := 0; i < b.N; i++ {
				var err error
				row, err = experiments.Table5(p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(row.RML, "H0-RML")
			b.ReportMetric(row.MEL, "H0-MEL")
		})
	}
}

// BenchmarkBuildSharded measures full index construction as the shard
// count grows; on a multi-core machine the K-shard build should
// approach K× the monolithic throughput (the per-shard SA-IS + BWT +
// wavelet builds dominate and run concurrently).
func BenchmarkBuildSharded(b *testing.B) {
	p := benchData(b, "randwalk")
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Shards = shards
			for i := 0; i < b.N; i++ {
				if _, err := Build(p.Dataset.Trajs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCountSharded measures the fan-out count query against the
// monolithic path on the same corpus.
func BenchmarkCountSharded(b *testing.B) {
	p := benchData(b, "randwalk")
	path := p.Dataset.Trajs[0][:10]
	for _, shards := range []int{1, 4, 8} {
		opts := DefaultOptions()
		opts.Shards = shards
		ix, err := Build(p.Dataset.Trajs, opts)
		if err != nil {
			b.Fatal(err)
		}
		want := ix.Count(path)
		b.Run(fmt.Sprintf("shards%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := ix.Count(path); got != want {
					b.Fatalf("Count = %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkPublicAPI covers the library surface a user touches.
func BenchmarkPublicAPI(b *testing.B) {
	p := benchData(b, "singapore2")
	ix, err := Build(p.Dataset.Trajs, nil)
	if err != nil {
		b.Fatal(err)
	}
	path := p.Dataset.Trajs[0][:10]
	b.Run("Count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Count(path)
		}
	})
	b.Run("Find10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := search(ix, Query{Path: path, Limit: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SubPath32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ix.SubPath(0, 0, min(32, ix.TrajectoryLen(0))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
