package entropy

import (
	"math"
	"math/rand"
	"testing"
)

func TestH0Uniform(t *testing.T) {
	// Uniform over 2^k symbols has H0 = k exactly.
	seq := make([]uint32, 0, 1024)
	for i := 0; i < 64; i++ {
		for c := uint32(0); c < 16; c++ {
			seq = append(seq, c)
		}
	}
	if h := H0(seq); math.Abs(h-4) > 1e-12 {
		t.Fatalf("H0(uniform over 16) = %v, want 4", h)
	}
}

func TestH0Constant(t *testing.T) {
	seq := []uint32{7, 7, 7, 7}
	if h := H0(seq); h != 0 {
		t.Fatalf("H0(constant) = %v, want 0", h)
	}
	if h := H0(nil); h != 0 {
		t.Fatalf("H0(empty) = %v, want 0", h)
	}
}

func TestH0FreqsMatchesH0(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seq := make([]uint32, 5000)
	freqs := make([]uint64, 20)
	for i := range seq {
		seq[i] = uint32(rng.Intn(20))
		freqs[seq[i]]++
	}
	if a, b := H0(seq), H0Freqs(freqs); math.Abs(a-b) > 1e-12 {
		t.Fatalf("H0=%v H0Freqs=%v", a, b)
	}
}

func TestHkDecreasesWithK(t *testing.T) {
	// Hk is non-increasing in k (Manzini). Use a sequence with strong
	// first-order structure: a noisy alternation.
	rng := rand.New(rand.NewSource(2))
	seq := make([]uint32, 20000)
	cur := uint32(0)
	for i := range seq {
		if rng.Float64() < 0.05 {
			cur = uint32(rng.Intn(4))
		} else {
			cur = (cur + 1) % 4
		}
		seq[i] = cur
	}
	h0 := Hk(seq, 0)
	h1 := Hk(seq, 1)
	h2 := Hk(seq, 2)
	if h1 > h0+1e-9 || h2 > h1+1e-9 {
		t.Fatalf("Hk not non-increasing: H0=%v H1=%v H2=%v", h0, h1, h2)
	}
	// The alternation means H1 should be far below H0.
	if h1 > 0.6*h0 {
		t.Fatalf("expected strong first-order structure: H0=%v H1=%v", h0, h1)
	}
}

func TestHkZeroEqualsH0(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := make([]uint32, 3000)
	for i := range seq {
		seq[i] = uint32(rng.Intn(9))
	}
	if a, b := Hk(seq, 0), H0(seq); math.Abs(a-b) > 1e-12 {
		t.Fatalf("Hk(·,0)=%v H0=%v", a, b)
	}
}

func TestHkDeterministicSequenceIsZero(t *testing.T) {
	// A purely periodic sequence has H1 ≈ 0 (each context determines
	// its successor, except the truncated first context).
	seq := make([]uint32, 10000)
	for i := range seq {
		seq[i] = uint32(i % 5)
	}
	if h := Hk(seq, 1); h > 0.01 {
		t.Fatalf("H1(periodic) = %v, want ~0", h)
	}
}
