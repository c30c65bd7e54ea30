package trajgen

import (
	"testing"

	"cinct/internal/entropy"
	"cinct/internal/etgraph"
	"cinct/internal/roadnet"
	"cinct/internal/trajstr"
)

// smallCfg keeps generator tests fast.
func smallCfg() Config {
	return Config{GridW: 10, GridH: 10, NumTrajs: 120, MeanLen: 25, Seed: 7}
}

// connectedFraction returns the fraction of transitions that follow
// physically connected edges.
func connectedFraction(g *roadnet.Graph, trajs [][]uint32) float64 {
	total, conn := 0, 0
	for _, tr := range trajs {
		for i := 1; i < len(tr); i++ {
			total++
			for _, nx := range g.NextEdges(roadnet.EdgeID(tr[i-1])) {
				if uint32(nx) == tr[i] {
					conn++
					break
				}
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(conn) / float64(total)
}

// avgDegreeOf builds the corpus ET-graph and reports d̄ (as Table III).
func avgDegreeOf(trajs [][]uint32) float64 {
	c, err := trajstr.New(trajs)
	if err != nil {
		panic(err)
	}
	g := etgraph.Build(c.Text, c.Sigma, etgraph.BigramSorted, 0, nil)
	return g.AvgOutDegree()
}

func TestSingaporeHasGaps(t *testing.T) {
	d := Singapore(smallCfg())
	if d.Name != "singapore" || d.Graph == nil {
		t.Fatal("bad dataset header")
	}
	frac := connectedFraction(d.Graph, d.Trajs)
	if frac > 0.97 {
		t.Fatalf("expected gapped transitions, connected fraction = %.3f", frac)
	}
	if frac < 0.80 {
		t.Fatalf("too many gaps, connected fraction = %.3f", frac)
	}
}

func TestSingapore2RepairsGaps(t *testing.T) {
	d2 := Singapore2(smallCfg())
	frac := connectedFraction(d2.Graph, d2.Trajs)
	if frac < 0.999 {
		t.Fatalf("Singapore-2 must be fully connected, got %.4f", frac)
	}
	// The d̄ drop of Table III: gapped corpus must have a denser
	// ET-graph than the repaired one.
	d1 := Singapore(smallCfg())
	dg1, dg2 := avgDegreeOf(d1.Trajs), avgDegreeOf(d2.Trajs)
	if dg2 >= dg1 {
		t.Fatalf("repair should reduce d̄: singapore=%.2f singapore2=%.2f", dg1, dg2)
	}
}

func TestSingapore2LongerThanSingapore(t *testing.T) {
	// Interpolation inserts edges, so the repaired corpus is larger
	// (paper: 53M -> 75M symbols).
	d1 := Singapore(smallCfg())
	d2 := Singapore2(smallCfg())
	if d2.TotalSymbols() <= d1.TotalSymbols() {
		t.Fatalf("interpolated corpus should grow: %d vs %d",
			d2.TotalSymbols(), d1.TotalSymbols())
	}
}

func TestRomaIsConnectedAndLowEntropy(t *testing.T) {
	cfg := smallCfg()
	cfg.NumTrajs = 60
	d := Roma(cfg)
	if len(d.Trajs) != 60 {
		t.Fatalf("got %d trajectories", len(d.Trajs))
	}
	if frac := connectedFraction(d.Graph, d.Trajs); frac < 0.999 {
		t.Fatalf("map-matched output must be connected, got %.4f", frac)
	}
}

func TestMOGenPathsAreConnected(t *testing.T) {
	cfg := smallCfg()
	cfg.NumTrajs = 80
	d := MOGen(cfg)
	if frac := connectedFraction(d.Graph, d.Trajs); frac < 0.999 {
		t.Fatalf("OD trips must be connected, got %.4f", frac)
	}
	if d.TotalSymbols() == 0 {
		t.Fatal("empty corpus")
	}
}

func TestChessIsSparseDeepCorpus(t *testing.T) {
	cfg := smallCfg()
	cfg.NumTrajs = 3000
	d := Chess(cfg)
	if d.Graph != nil {
		t.Fatal("chess has no road network")
	}
	for _, tr := range d.Trajs {
		if len(tr) != 10 {
			t.Fatalf("opening length %d, want 10", len(tr))
		}
	}
	// Table III signature: low average out-degree despite a large
	// alphabet.
	if dg := avgDegreeOf(d.Trajs); dg > 3.0 {
		t.Fatalf("chess analog d̄ = %.2f, want small (paper: 1.6)", dg)
	}
}

func TestRandWalkControlsSigmaAndLength(t *testing.T) {
	d := RandWalk(512, 4, 40000, 3)
	if got := d.TotalSymbols(); got < 40000 || got > 40200 {
		t.Fatalf("total symbols = %d, want ~40000", got)
	}
	seen := map[uint32]bool{}
	for _, tr := range d.Trajs {
		for _, e := range tr {
			if e >= 512 {
				t.Fatalf("state %d out of range", e)
			}
			seen[e] = true
		}
	}
	if len(seen) < 256 {
		t.Fatalf("only %d states visited", len(seen))
	}
}

func TestRandWalkDegreeScales(t *testing.T) {
	d4 := RandWalk(256, 4, 60000, 5)
	d16 := RandWalk(256, 16, 60000, 5)
	g4, g16 := avgDegreeOf(d4.Trajs), avgDegreeOf(d16.Trajs)
	if g16 <= g4 {
		t.Fatalf("d̄ should grow with avgDeg: %.2f vs %.2f", g4, g16)
	}
}

func TestDeterminism(t *testing.T) {
	a := Singapore(smallCfg())
	b := Singapore(smallCfg())
	if len(a.Trajs) != len(b.Trajs) {
		t.Fatal("same seed, different corpus size")
	}
	for k := range a.Trajs {
		if len(a.Trajs[k]) != len(b.Trajs[k]) {
			t.Fatalf("trajectory %d length differs", k)
		}
		for i := range a.Trajs[k] {
			if a.Trajs[k][i] != b.Trajs[k][i] {
				t.Fatalf("trajectory %d differs at %d", k, i)
			}
		}
	}
}

// The headline precondition of the whole paper: every dataset analog
// must have H0(φ(Tbwt)) ≪ H0(T) — strong relative-movement structure.
func TestLabeledEntropyIsMuchSmaller(t *testing.T) {
	cfg := smallCfg()
	cfg.NumTrajs = 150
	sets := []Dataset{Singapore(cfg), Singapore2(cfg), MOGen(cfg)}
	for _, d := range sets {
		c, err := trajstr.New(d.Trajs)
		if err != nil {
			t.Fatal(err)
		}
		h0 := entropy.H0(c.Text)
		// Label the forward text as a cheap proxy for H0(φ(Tbwt)) — the
		// full check runs in the integration tests.
		g := etgraph.Build(c.Text, c.Sigma, etgraph.BigramSorted, 0, nil)
		labels := make([]uint32, 0, len(c.Text)-1)
		for i := 0; i+1 < len(c.Text); i++ {
			l, ok := g.Label(c.Text[i], c.Text[i+1])
			if !ok {
				t.Fatalf("%s: transition missing from ET-graph", d.Name)
			}
			labels = append(labels, l)
		}
		hPhi := entropy.H0(labels)
		if hPhi > 0.5*h0 {
			t.Fatalf("%s: H0(φ)=%.2f not ≪ H0(T)=%.2f", d.Name, hPhi, h0)
		}
	}
}
