package bitvec

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// naive is a reference bit vector for cross-validation.
type naive struct{ bits []bool }

func (n *naive) rank1(i int) int {
	r := 0
	for j := 0; j < i; j++ {
		if n.bits[j] {
			r++
		}
	}
	return r
}

func randomBits(rng *rand.Rand, n int, density float64) (*Builder, *naive) {
	b := NewBuilder(n)
	nv := &naive{bits: make([]bool, n)}
	for i := 0; i < n; i++ {
		bit := rng.Float64() < density
		b.PushBit(bit)
		nv.bits[i] = bit
	}
	return b, nv
}

func TestPlainAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, 65, 511, 512, 513, 4096, 10000} {
		for _, density := range []float64{0, 0.05, 0.5, 0.95, 1} {
			b, nv := randomBits(rng, n, density)
			p := b.Plain()
			if p.Len() != n {
				t.Fatalf("n=%d: Len=%d", n, p.Len())
			}
			for i := 0; i <= n; i++ {
				if got, want := p.Rank1(i), nv.rank1(i); got != want {
					t.Fatalf("n=%d d=%.2f: Rank1(%d)=%d want %d", n, density, i, got, want)
				}
			}
			for i := 0; i < n; i++ {
				if got, want := p.Get(i), nv.bits[i]; got != want {
					t.Fatalf("n=%d: Get(%d)=%v want %v", n, i, got, want)
				}
			}
		}
	}
}

func TestRRRAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, blockSize := range []int{15, 31, 63} {
		for _, n := range []int{0, 1, 14, 15, 16, 62, 63, 64, 65, 1000, 4097} {
			for _, density := range []float64{0, 0.1, 0.5, 0.9, 1} {
				b, nv := randomBits(rng, n, density)
				r := b.RRR(blockSize)
				if r.Len() != n {
					t.Fatalf("b=%d n=%d: Len=%d", blockSize, n, r.Len())
				}
				for i := 0; i <= n; i++ {
					if got, want := r.Rank1(i), nv.rank1(i); got != want {
						t.Fatalf("b=%d n=%d d=%.2f: Rank1(%d)=%d want %d",
							blockSize, n, density, i, got, want)
					}
				}
				for i := 0; i < n; i++ {
					if got, want := r.Get(i), nv.bits[i]; got != want {
						t.Fatalf("b=%d n=%d: Get(%d)=%v want %v", blockSize, n, i, got, want)
					}
				}
			}
		}
	}
}

func TestRRRRejectsBadBlockSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for block size 16")
		}
	}()
	NewRRR(nil, 0, 16)
}

func TestRankPanicsOutOfRange(t *testing.T) {
	b := NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.PushBit(true)
	}
	p := b.Plain()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Rank1(9)")
		}
	}()
	p.Rank1(9)
}

func TestRRRCompressesSparse(t *testing.T) {
	// A very sparse vector must compress well below its plain size.
	rng := rand.New(rand.NewSource(5))
	n := 1 << 16
	b, _ := randomBits(rng, n, 0.01)
	r := b.RRR(63)
	p := NewBuilderCopy(b).Plain()
	if r.SizeBits() >= p.SizeBits()/2 {
		t.Fatalf("RRR on 1%% density should be <1/2 plain size: rrr=%d plain=%d",
			r.SizeBits(), p.SizeBits())
	}
}

// NewBuilderCopy clones a builder so one bit stream can build both
// representations in tests.
func NewBuilderCopy(b *Builder) *Builder {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Builder{words: w, n: b.n}
}

func TestEnumRoundTripQuick(t *testing.T) {
	for _, b := range []int{15, 31, 63} {
		b := b
		f := func(raw uint64) bool {
			v := raw & (1<<uint(b) - 1)
			c := bits.OnesCount64(v)
			off := encodeOffset(v, b, c)
			if off >= binomial[b][c] {
				return false
			}
			return decodeOffset(off, b, c) == v
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Fatalf("block size %d: %v", b, err)
		}
	}
}

func TestEnumOffsetsAreDense(t *testing.T) {
	// For b=15 enumerate all 2^15 blocks: every class-c offset must be a
	// bijection onto [0, C(15,c)).
	const b = 15
	seen := make(map[int]map[uint64]bool)
	for v := uint64(0); v < 1<<b; v++ {
		c := bits.OnesCount64(v)
		off := encodeOffset(v, b, c)
		if off >= binomial[b][c] {
			t.Fatalf("offset %d out of range for class %d", off, c)
		}
		if seen[c] == nil {
			seen[c] = make(map[uint64]bool)
		}
		if seen[c][off] {
			t.Fatalf("duplicate offset %d in class %d", off, c)
		}
		seen[c][off] = true
	}
	for c := 0; c <= b; c++ {
		if uint64(len(seen[c])) != binomial[b][c] {
			t.Fatalf("class %d: %d offsets, want %d", c, len(seen[c]), binomial[b][c])
		}
	}
}

func TestRankMonotoneQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b, _ := randomBits(rng, 3000, 0.4)
	r := b.RRR(31)
	f := func(i uint16) bool {
		x := int(i) % r.Len()
		return r.Rank1(x) <= r.Rank1(x+1) && r.Rank1(x+1)-r.Rank1(x) <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if r.Rank1(r.Len()) != r.Ones() {
		t.Fatalf("Rank1(n)=%d want Ones()=%d", r.Rank1(r.Len()), r.Ones())
	}
}

func TestRank0PlusRank1(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b, _ := randomBits(rng, 1234, 0.5)
	r := b.RRR(15)
	p := NewBuilderCopy(b).Plain()
	for i := 0; i <= 1234; i++ {
		if r.Rank0(i)+r.Rank1(i) != i {
			t.Fatalf("RRR: Rank0(%d)+Rank1(%d) != %d", i, i, i)
		}
		if p.Rank0(i)+p.Rank1(i) != i {
			t.Fatalf("Plain: Rank0(%d)+Rank1(%d) != %d", i, i, i)
		}
	}
}

func TestEmptyVectors(t *testing.T) {
	b := NewBuilder(0)
	p := b.Plain()
	r := NewBuilderCopy(b).RRR(63)
	if p.Len() != 0 || r.Len() != 0 {
		t.Fatal("empty vectors should have length 0")
	}
	if p.Rank1(0) != 0 || r.Rank1(0) != 0 {
		t.Fatal("Rank1(0) on empty should be 0")
	}
}

func BenchmarkPlainRank(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	bl, _ := randomBits(rng, 1<<20, 0.5)
	p := bl.Plain()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Rank1((i * 7919) % p.Len())
	}
}

func BenchmarkRRRRank(b *testing.B) {
	for _, bs := range []int{15, 31, 63} {
		b.Run(map[int]string{15: "b15", 31: "b31", 63: "b63"}[bs], func(b *testing.B) {
			rng := rand.New(rand.NewSource(9))
			bl, _ := randomBits(rng, 1<<20, 0.5)
			r := bl.RRR(bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Rank1((i * 7919) % r.Len())
			}
		})
	}
}
