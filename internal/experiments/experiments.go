package experiments

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"

	"cinct/internal/bwzip"
	"cinct/internal/entropy"
	"cinct/internal/etgraph"
	"cinct/internal/fmindex"
	"cinct/internal/mel"
	"cinct/internal/press"
	"cinct/internal/repair"
	"cinct/internal/trajgen"
)

// ---------------------------------------------------------------------
// Table III — dataset statistics
// ---------------------------------------------------------------------

// Table3Row is one dataset's statistics line.
type Table3Row struct {
	Dataset string
	TLen    int     // |T|
	LgSigma float64 // lg σ
	H0T     float64 // H0(T) (= H0(Tbwt))
	H0Phi   float64 // H0(φ(Tbwt))
	H1T     float64 // H1(T)
	AvgDeg  float64 // d̄ of the ET-graph
}

func (r Table3Row) String() string {
	return fmt.Sprintf("%-12s |T|=%-9d lgσ=%-5.1f H0(T)=%-5.2f H0(φ)=%-5.2f H1(T)=%-5.2f d̄=%.1f",
		r.Dataset, r.TLen, r.LgSigma, r.H0T, r.H0Phi, r.H1T, r.AvgDeg)
}

// Table3 computes the statistics of Table III for one dataset.
func Table3(p *Prepared) Table3Row {
	g := etgraph.Build(p.Corpus.Text, p.Corpus.Sigma, etgraph.BigramSorted, 0, nil)
	// Label the BWT exactly as the index does, to get H0(φ(Tbwt)).
	ix, _ := BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
	return Table3Row{
		Dataset: p.Name,
		TLen:    len(p.Corpus.Text),
		LgSigma: math.Log2(float64(p.Corpus.Sigma)),
		H0T:     entropy.H0(p.Corpus.Text),
		H0Phi:   ix.LabelEntropy(),
		H1T:     entropy.Hk(p.Corpus.Text, 1),
		AvgDeg:  g.AvgOutDegree(),
	}
}

// ---------------------------------------------------------------------
// Fig. 10 — size vs search time, all datasets × methods × block sizes
// ---------------------------------------------------------------------

// Fig10Row is one (dataset, method, block) point of Fig. 10.
type Fig10Row struct {
	Dataset  string
	Method   string
	Block    int
	BitsSym  float64
	SearchNS float64
}

func (r Fig10Row) String() string {
	return fmt.Sprintf("%-12s %-14s b=%-3d %7.2f bits/sym  %9.1f ns/query",
		r.Dataset, r.Method, r.Block, r.BitsSym, r.SearchNS)
}

// Fig10 runs the size/speed comparison for one dataset: every method,
// with the RRR-parameterized ones swept over b ∈ {15,31,63}. The
// paper's workload: `queries` suffix range queries of length
// `queryLen` sampled from the data.
func Fig10(p *Prepared, queries, queryLen int) []Fig10Row {
	qs := p.SampleQueries(queries, queryLen, 42)
	var rows []Fig10Row
	for _, block := range []int{15, 31, 63} {
		ix, cinct := BuildCiNCT(p, block, etgraph.BigramSorted, 0)
		rows = append(rows, Fig10Row{p.Name, cinct.Name, block, cinct.BitsPerSymbol, TimeSearch(cinct, qs)})
		rows = append(rows, Fig10Row{p.Name, "CiNCT w/o graph", block, CiNCTWithoutGraphBits(ix), 0})
		for _, m := range []fmindex.Method{fmindex.ICBWM, fmindex.ICBHuff} {
			b := BuildBaseline(p, m, block)
			rows = append(rows, Fig10Row{p.Name, b.Name, block, b.BitsPerSymbol, TimeSearch(b, qs)})
		}
	}
	for _, m := range []fmindex.Method{fmindex.UFMI, fmindex.FMAP, fmindex.FMInv} {
		b := BuildBaseline(p, m, 63)
		rows = append(rows, Fig10Row{p.Name, b.Name, 0, b.BitsPerSymbol, TimeSearch(b, qs)})
	}
	return rows
}

// ---------------------------------------------------------------------
// Fig. 11 — query length vs search time
// ---------------------------------------------------------------------

// Fig11Row is one (method, |P|) timing point.
type Fig11Row struct {
	Method   string
	PatLen   int
	SearchNS float64
}

func (r Fig11Row) String() string {
	return fmt.Sprintf("%-14s |P|=%-3d %9.1f ns/query", r.Method, r.PatLen, r.SearchNS)
}

// Fig11 sweeps the pattern length on one dataset (the paper uses the
// Singapore analog) for every method.
func Fig11(p *Prepared, queries int, lens []int) []Fig11Row {
	builts := BuildAll(p, 63)
	var rows []Fig11Row
	for _, l := range lens {
		qs := p.SampleQueries(queries, l, int64(1000+l))
		for _, b := range builts {
			rows = append(rows, Fig11Row{b.Name, l, TimeSearch(b, qs)})
		}
	}
	return rows
}

// ---------------------------------------------------------------------
// Figs. 12 & 13 — RandWalk scaling in σ and d̄
// ---------------------------------------------------------------------

// ScalingRow is one (σ, d̄, method) point of Fig. 12 / Fig. 13.
type ScalingRow struct {
	Sigma    int
	AvgDeg   int
	Method   string
	BitsSym  float64
	SearchNS float64
}

func (r ScalingRow) String() string {
	return fmt.Sprintf("σ=%-7d d=%-4d %-14s %7.2f bits/sym  %9.1f ns/query",
		r.Sigma, r.AvgDeg, r.Method, r.BitsSym, r.SearchNS)
}

// Fig12 sweeps the alphabet size σ with d̄ fixed at 4 and |T| = lenPerSigma·σ
// (the paper: 800σ).
func Fig12(sigmas []int, lenPerSigma, queries, queryLen int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, sigma := range sigmas {
		d := 4
		p, err := Prepare(randwalk(sigma, d, lenPerSigma*sigma))
		if err != nil {
			return nil, err
		}
		rows = append(rows, scalingPoints(p, sigma, d, queries, queryLen)...)
	}
	return rows, nil
}

// Fig13 sweeps the out-degree d̄ with σ and |T| fixed.
func Fig13(sigma int, degrees []int, totalLen, queries, queryLen int) ([]ScalingRow, error) {
	var rows []ScalingRow
	for _, d := range degrees {
		p, err := Prepare(randwalk(sigma, d, totalLen))
		if err != nil {
			return nil, err
		}
		rows = append(rows, scalingPoints(p, sigma, d, queries, queryLen)...)
	}
	return rows, nil
}

func scalingPoints(p *Prepared, sigma, d, queries, queryLen int) []ScalingRow {
	qs := p.SampleQueries(queries, queryLen, 7)
	var rows []ScalingRow
	for _, b := range BuildAll(p, 63) {
		rows = append(rows, ScalingRow{sigma, d, b.Name, b.BitsPerSymbol, TimeSearch(b, qs)})
	}
	return rows
}

// ---------------------------------------------------------------------
// Fig. 14 — labeling strategy ablation
// ---------------------------------------------------------------------

// Fig14Row compares bigram-sorted vs random labeling.
type Fig14Row struct {
	Dataset  string
	Strategy string
	Block    int
	BitsSym  float64
	SearchNS float64
}

func (r Fig14Row) String() string {
	return fmt.Sprintf("%-12s %-8s b=%-3d %7.2f bits/sym  %9.1f ns/query",
		r.Dataset, r.Strategy, r.Block, r.BitsSym, r.SearchNS)
}

// Fig14 runs the Theorem 3 ablation on one dataset.
func Fig14(p *Prepared, queries, queryLen int) []Fig14Row {
	qs := p.SampleQueries(queries, queryLen, 14)
	var rows []Fig14Row
	for _, block := range []int{15, 31, 63} {
		_, opt := BuildCiNCT(p, block, etgraph.BigramSorted, 0)
		rows = append(rows, Fig14Row{p.Name, "bigram", block, opt.BitsPerSymbol, TimeSearch(opt, qs)})
		_, rnd := BuildCiNCT(p, block, etgraph.RandomShuffle, 99)
		rows = append(rows, Fig14Row{p.Name, "random", block, rnd.BitsPerSymbol, TimeSearch(rnd, qs)})
	}
	return rows
}

// ---------------------------------------------------------------------
// Fig. 15 — sub-path extraction time
// ---------------------------------------------------------------------

// Fig15Row is one (dataset, method) extraction timing.
type Fig15Row struct {
	Dataset   string
	Method    string
	ExtractNS float64 // per symbol
}

func (r Fig15Row) String() string {
	return fmt.Sprintf("%-12s %-14s %8.1f ns/symbol", r.Dataset, r.Method, r.ExtractNS)
}

// Fig15 times whole-text extraction per method (§VI-F; FM-AP is
// excluded in the paper because sdsl lacked access support — ours
// supports it, so it is included).
func Fig15(p *Prepared) []Fig15Row {
	var rows []Fig15Row
	for _, b := range BuildAll(p, 63) {
		rows = append(rows, Fig15Row{p.Name, b.Name, TimeExtract(b, len(p.Corpus.Text))})
	}
	return rows
}

// ---------------------------------------------------------------------
// Fig. 16 — construction time breakdown
// ---------------------------------------------------------------------

// Fig16Row is one method's construction breakdown, in milliseconds.
type Fig16Row struct {
	Method  string
	BWTMs   float64
	WTMs    float64
	GraphMs float64
}

func (r Fig16Row) String() string {
	return fmt.Sprintf("%-14s BWT=%8.1fms  WT=%8.1fms  ET-graph=%8.1fms",
		r.Method, r.BWTMs, r.WTMs, r.GraphMs)
}

// Fig16 measures construction stages on one dataset. The BWT stage is
// shared (identical work for every method).
func Fig16(p *Prepared) []Fig16Row {
	bwtMs := float64(p.BWTTime.Microseconds()) / 1000
	var rows []Fig16Row
	for _, b := range BuildAll(p, 63) {
		rows = append(rows, Fig16Row{
			Method: b.Name, BWTMs: bwtMs,
			WTMs:    float64(b.WTTime.Microseconds()) / 1000,
			GraphMs: float64(b.GraphTime.Microseconds()) / 1000,
		})
	}
	return rows
}

// ---------------------------------------------------------------------
// Table IV — compression ratios
// ---------------------------------------------------------------------

// Table4Row is one (dataset, compressor) ratio; larger is better.
type Table4Row struct {
	Dataset    string
	Compressor string
	Ratio      float64 // uncompressed(32-bit)/compressed; 0 = N/A
}

func (r Table4Row) String() string {
	if r.Ratio == 0 {
		return fmt.Sprintf("%-12s %-10s   N/A", r.Dataset, r.Compressor)
	}
	return fmt.Sprintf("%-12s %-10s %6.1f", r.Dataset, r.Compressor, r.Ratio)
}

// Table4 computes the compression-ratio comparison for one dataset.
// MEL and PRESS require a road network and connected paths, so they
// are N/A on datasets without one — as in the paper, where MEL is
// evaluated only on ungapped data and PRESS only where an encoder
// applies.
func Table4(p *Prepared) []Table4Row {
	var symbols int64
	for _, tr := range p.Dataset.Trajs {
		symbols += int64(len(tr))
	}
	raw := float64(symbols * 32)
	rows := []Table4Row{}

	// CiNCT: the whole index (labeled WT + ET-graph + C array).
	ix, _ := BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
	s := ix.Sizes()
	rows = append(rows, Table4Row{p.Name, "CiNCT", raw / float64(s.Total())})

	// MEL (needs the road network; skipped on gapped data as in [1]).
	if p.Dataset.Graph != nil && p.Name != "singapore" {
		l := mel.Build(p.Dataset.Graph, p.Dataset.Trajs)
		rows = append(rows, Table4Row{p.Name, "MEL", raw / float64(l.CompressedSizeBits(p.Dataset.Trajs))})
	} else {
		rows = append(rows, Table4Row{p.Name, "MEL", 0})
	}

	// Re-Pair over the concatenated corpus (with separators).
	g := repair.Compress(p.Corpus.Text, p.Corpus.Sigma)
	rows = append(rows, Table4Row{p.Name, "Re-Pair", raw / float64(g.SizeBits())})

	// bzip2 stand-in, invoked the way the paper invoked bzip2: on the
	// 32-bit binary serialization, in independent 900 kB byte blocks.
	bzBits := bwzip.CompressBytes(serialize32(p.Corpus.Text), 900*1000)
	rows = append(rows, Table4Row{p.Name, "bwzip", raw / float64(bzBits)})

	// PRESS (needs connected paths on a network).
	if p.Dataset.Graph != nil && p.Name != "singapore" {
		pr := press.Compress(p.Dataset.Graph, p.Dataset.Trajs)
		rows = append(rows, Table4Row{p.Name, "PRESS", raw / float64(pr.SizeBits())})
	} else {
		rows = append(rows, Table4Row{p.Name, "PRESS", 0})
	}

	// zip = DEFLATE over the 32-bit binary serialization.
	rows = append(rows, Table4Row{p.Name, "zip", raw / float64(flateBits(p.Corpus.Text))})
	return rows
}

// serialize32 renders the sequence as the 32-bit little-endian binary
// file the paper's compression ratios are measured against.
func serialize32(seq []uint32) []byte {
	out := make([]byte, 4*len(seq))
	for i, s := range seq {
		binary.LittleEndian.PutUint32(out[i*4:], s)
	}
	return out
}

// flateBits DEFLATE-compresses the 32-bit little-endian serialization
// and returns the size in bits.
func flateBits(seq []uint32) int64 {
	var out bytes.Buffer
	w, err := flate.NewWriter(&out, flate.BestCompression)
	if err != nil {
		panic(err)
	}
	if _, err := w.Write(serialize32(seq)); err != nil {
		panic(err)
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return int64(out.Len()) * 8
}

// ---------------------------------------------------------------------
// Table V — RML vs MEL entropy
// ---------------------------------------------------------------------

// Table5Row compares the labeling entropies (Theorem 6).
type Table5Row struct {
	Dataset string
	RML     float64
	MEL     float64
}

func (r Table5Row) String() string {
	return fmt.Sprintf("%-12s RML=%.2f  MEL=%.2f", r.Dataset, r.RML, r.MEL)
}

// Table5 computes H0 of the two labelings on one (network-backed,
// connected) dataset.
func Table5(p *Prepared) (Table5Row, error) {
	if p.Dataset.Graph == nil {
		return Table5Row{}, fmt.Errorf("experiments: %s has no road network", p.Name)
	}
	ix, _ := BuildCiNCT(p, 63, etgraph.BigramSorted, 0)
	l := mel.Build(p.Dataset.Graph, p.Dataset.Trajs)
	return Table5Row{
		Dataset: p.Name,
		RML:     ix.LabelEntropy(),
		MEL:     l.Entropy(p.Dataset.Trajs),
	}, nil
}

// randwalk generates the Fig. 12/13 synthetic dataset with a
// deterministic seed derived from its parameters.
func randwalk(sigma, deg, totalLen int) trajgen.Dataset {
	return trajgen.RandWalk(sigma, deg, totalLen, int64(sigma*31+deg))
}
