// Compression bake-off: a Table-IV-style comparison of CiNCT against
// the baseline compressors on one synthetic corpus, illustrating the
// trade-off the paper targets — general-purpose compressors shrink
// the data but cannot answer path queries; CiNCT compresses *and*
// stays queryable.
package main

import (
	"fmt"
	"log"
	"math"

	"cinct"
	"cinct/internal/bwzip"
	"cinct/internal/mel"
	"cinct/internal/press"
	"cinct/internal/repair"
	"cinct/internal/trajgen"
	"cinct/internal/trajstr"
)

func main() {
	cfg := trajgen.Config{GridW: 14, GridH: 14, NumTrajs: 6000, MeanLen: 40, Seed: 5}
	d := trajgen.Singapore2(cfg)
	corpus, err := trajstr.New(d.Trajs)
	if err != nil {
		log.Fatal(err)
	}
	var symbols int64
	for _, tr := range d.Trajs {
		symbols += int64(len(tr))
	}
	raw := symbols * 32
	fmt.Printf("corpus: %d trips, %d edge traversals, raw 32-bit size %d KiB\n\n",
		len(d.Trajs), symbols, raw/8/1024)

	type row struct {
		name      string
		bits      int64
		queryable string
	}
	var rows []row

	ix, err := cinct.Build(d.Trajs, nil)
	if err != nil {
		log.Fatal(err)
	}
	// The paper's accounting (wavelet tree, ET-graph and C), as the
	// baselines' SizeBits count their structures; Stats' size fields
	// are the served file's sections instead.
	s := ix.Stats()
	rows = append(rows, row{"CiNCT", int64(math.Round(s.BitsPerSymbol * float64(s.TextLen))),
		"count+find+extract"})

	l := mel.Build(d.Graph, d.Trajs)
	rows = append(rows, row{"MEL+Huffman", l.CompressedSizeBits(d.Trajs), "no"})

	rp := repair.Compress(corpus.Text, corpus.Sigma)
	rows = append(rows, row{"Re-Pair", rp.SizeBits(), "no"})

	pr := press.Compress(d.Graph, d.Trajs)
	rows = append(rows, row{"PRESS*", pr.SizeBits(), "no"})

	bz := bwzip.Compress(corpus.Text, corpus.Sigma)
	rows = append(rows, row{"bwzip (global)", bz.SizeBits(), "no"})

	fmt.Printf("%-16s %10s %8s  %s\n", "compressor", "KiB", "ratio", "queries")
	for _, r := range rows {
		fmt.Printf("%-16s %10.1f %7.1fx  %s\n",
			r.name, float64(r.bits)/8/1024, float64(raw)/float64(r.bits), r.queryable)
	}

	// Prove the "queryable" column: answer a path query straight from
	// the compressed index.
	q := d.Trajs[0][:4]
	fmt.Printf("\npath query %v on the compressed index: %d occurrences\n", q, ix.Count(q))
}
