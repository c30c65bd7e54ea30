package wavelet

import (
	"math/rand"
	"testing"

	"cinct/internal/bitvec"
	"cinct/internal/flat"
)

// ruleSeqs are the three shapes the node rule has to get right: a
// skewed root, where RRR pays and must stay; a balanced root, where it
// does not; and a sparse 2.5k-symbol alphabet like the separator
// context's labels, whose many tiny nodes would each carry a full RRR
// header.
func ruleSeqs() map[string]struct {
	seq   []uint32
	sigma int
} {
	rng := rand.New(rand.NewSource(41))
	skewed := make([]uint32, 50_000)
	for i := range skewed {
		if rng.Float64() < 0.9 {
			continue
		}
		skewed[i] = uint32(1 + rng.Intn(63))
	}
	balanced := make([]uint32, 50_000)
	for i := range balanced {
		balanced[i] = uint32(rng.Intn(4))
	}
	sparse := randomSeq(rng, 60_000, 2_500, 3)
	return map[string]struct {
		seq   []uint32
		sigma int
	}{
		"skewed":   {skewed, 64},
		"balanced": {balanced, 4},
		"sparse":   {sparse, 2_500},
	}
}

// nodeBits rebuilds a node's bits, the input its kind was chosen from.
func nodeBits(v bitvec.Vector) *bitvec.Builder {
	b := bitvec.NewBuilder(v.Len())
	for i := 0; i < v.Len(); i++ {
		b.PushBit(v.Get(i))
	}
	return b
}

// nodeKinds counts an HWT's plain and RRR nodes.
func nodeKinds(h *HWT) (plain, rrr int) {
	for i := range h.nodes {
		if _, ok := h.nodes[i].bv.(*bitvec.RRR); ok {
			rrr++
		} else {
			plain++
		}
	}
	return plain, rrr
}

// TestHWTNodeRule checks the per-node choice under an RRR spec: every
// node is RRR exactly when that form is at least 1/8 smaller than plain
// in the flat stream (bitvec pins those prices to the written words),
// the answers equal an all-plain tree's, and the mixed tree survives
// the flat round trip node kind for node kind.
func TestHWTNodeRule(t *testing.T) {
	wantRoot := map[string]string{"skewed": "rrr", "balanced": "plain"}
	for name, tc := range ruleSeqs() {
		t.Run(name, func(t *testing.T) {
			h := NewHWT(tc.seq, tc.sigma, RRRSpec(63))
			ref := NewHWT(tc.seq, tc.sigma, PlainSpec)
			for i := range h.nodes {
				bv := h.nodes[i].bv
				plain, rrr := nodeBits(bv).FlatWords(63)
				_, isRRR := bv.(*bitvec.RRR)
				if isRRR != (8*rrr <= 7*plain) {
					t.Fatalf("node %d (%d bits): RRR=%v with %d RRR words vs %d plain",
						i, bv.Len(), isRRR, rrr, plain)
				}
			}
			if want := wantRoot[name]; want != "" {
				_, isRRR := h.nodes[h.root].bv.(*bitvec.RRR)
				if got := map[bool]string{false: "plain", true: "rrr"}[isRRR]; got != want {
					t.Fatalf("root is %s, want %s", got, want)
				}
			}
			plain, rrr := nodeKinds(h)
			t.Logf("%d nodes: %d plain, %d RRR", len(h.nodes), plain, rrr)

			w := flat.NewWriter()
			h.AppendFlat(w)
			view, err := ViewHWT(flat.NewCursor(w.Words()))
			if err != nil {
				t.Fatal(err)
			}
			for i := range h.nodes {
				_, a := h.nodes[i].bv.(*bitvec.RRR)
				_, b := view.nodes[i].bv.(*bitvec.RRR)
				if a != b {
					t.Fatalf("node %d changed kind in the round trip", i)
				}
			}
			rng := rand.New(rand.NewSource(int64(len(tc.seq))))
			for _, got := range []*HWT{h, view} {
				for i := range tc.seq {
					if c, r := got.AccessRank(i); c != tc.seq[i] || got.Access(i) != c {
						t.Fatalf("Access(%d) = %d, want %d", i, c, tc.seq[i])
					} else if _, want := ref.AccessRank(i); r != want {
						t.Fatalf("AccessRank(%d) rank %d, want %d", i, r, want)
					}
				}
				for k := 0; k < 2_000; k++ {
					c, i := uint32(rng.Intn(tc.sigma+1)), rng.Intn(len(tc.seq)+1)
					if got.Rank(c, i) != ref.Rank(c, i) {
						t.Fatalf("Rank(%d, %d) = %d, want %d", c, i, got.Rank(c, i), ref.Rank(c, i))
					}
				}
			}
		})
	}
}
