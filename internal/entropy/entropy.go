// Package entropy computes the empirical entropy measures used
// throughout the paper's analysis and evaluation: the 0th order
// empirical entropy H0 (Eq. 3), the k-th order empirical entropy Hk
// (Eq. 4), and bigram/unigram statistics of sequences.
package entropy

import "math"

// H0 returns the 0th order empirical entropy of seq in bits per symbol
// (Eq. 3): sum over symbols w of (n_w/n) lg(n/n_w). An empty sequence
// has entropy 0.
func H0(seq []uint32) float64 {
	if len(seq) == 0 {
		return 0
	}
	counts := make(map[uint32]int, 64)
	for _, s := range seq {
		counts[s]++
	}
	return h0Counts(counts, len(seq))
}

// H0Freqs is H0 computed from a frequency histogram.
func H0Freqs(freqs []uint64) float64 {
	var n uint64
	for _, f := range freqs {
		n += f
	}
	if n == 0 {
		return 0
	}
	var h float64
	for _, f := range freqs {
		if f > 0 {
			p := float64(f) / float64(n)
			h -= p * math.Log2(p)
		}
	}
	return h
}

func h0Counts(counts map[uint32]int, n int) float64 {
	var h float64
	for _, c := range counts {
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// Hk returns the k-th order empirical entropy of seq (Eq. 4): the
// average, over length-k contexts W, of H0 of the symbols that follow
// W, weighted by context frequency. Hk(seq) for k=0 equals H0(seq).
//
// Contexts are the k symbols *preceding* each position, matching
// Manzini's definition used by the paper (the first k positions have
// truncated contexts and are grouped by their short prefix).
func Hk(seq []uint32, k int) float64 {
	n := len(seq)
	if n == 0 {
		return 0
	}
	if k <= 0 {
		return H0(seq)
	}
	type ctxStat struct {
		counts map[uint32]int
		total  int
	}
	ctxs := make(map[string]*ctxStat, 1024)
	key := make([]byte, 0, 4*k)
	for i := 0; i < n; i++ {
		key = key[:0]
		lo := i - k
		if lo < 0 {
			lo = 0
		}
		for j := lo; j < i; j++ {
			c := seq[j]
			key = append(key, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
		}
		cs := ctxs[string(key)]
		if cs == nil {
			cs = &ctxStat{counts: make(map[uint32]int, 4)}
			ctxs[string(key)] = cs
		}
		cs.counts[seq[i]]++
		cs.total++
	}
	var h float64
	for _, cs := range ctxs {
		h += float64(cs.total) / float64(n) * h0Counts(cs.counts, cs.total)
	}
	return h
}
