package bitvec

import (
	"math/rand"
	"testing"
)

// TestHotPathAllocs asserts that the per-query primitives — Rank1,
// AccessRank1 and Get — allocate nothing. These run millions of times
// per search; a single allocation per op would dominate the
// mmap-serving latency profile, so CI guards the zero.
func TestHotPathAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b := NewBuilder(100_000)
	for i := 0; i < 100_000; i++ {
		b.PushBit(rng.Intn(4) == 0)
	}
	vectors := []struct {
		name string
		v    Vector
	}{
		{"Plain", b.Plain()},
		{"RRR15", b.RRR(15)},
		{"RRR63", b.RRR(63)},
	}
	var sink int
	var sinkBit bool
	for _, tc := range vectors {
		v := tc.v
		n := v.Len()
		if got := testing.AllocsPerRun(200, func() {
			sink += v.Rank1(n / 2)
			sink += v.Rank1(n)
		}); got != 0 {
			t.Errorf("%s.Rank1: %v allocs/op, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			sinkBit = v.Get(n / 3)
		}); got != 0 {
			t.Errorf("%s.Get: %v allocs/op, want 0", tc.name, got)
		}
		if got := testing.AllocsPerRun(200, func() {
			b, r := v.AccessRank1(n - 1)
			sinkBit = b
			sink += r
		}); got != 0 {
			t.Errorf("%s.AccessRank1: %v allocs/op, want 0", tc.name, got)
		}
	}
	_ = sink
	_ = sinkBit
}
