package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"cinct"
	"cinct/internal/gps"
	"cinct/internal/querygen"
	"cinct/internal/roadnet"
	"cinct/internal/trajgen"
)

// corpus is one generated dataset with the pinned options it is
// indexed under. Everything in it is a function of the seed alone.
type corpus struct {
	name  string
	trajs [][]uint32
	times [][]int64 // nil for the spatial corpus
	opts  *cinct.Options

	// grid corpus only: the road network and the ingest pool.
	graph  *roadnet.Graph
	traces []gps.Trace
	walks  [][]roadnet.EdgeID
}

// symbols is the corpus size in the unit bits/symbol is quoted in:
// edges plus one separator per trajectory.
func (c *corpus) symbols() int {
	n := 0
	for _, tr := range c.trajs {
		n += len(tr) + 1
	}
	return n
}

func (c *corpus) temporal() bool { return c.times != nil }

// indexOptions pins the build options: Shards is fixed at 4 rather
// than derived from GOMAXPROCS so the index is byte-identical across
// machines.
func indexOptions(sampleRate int) *cinct.Options {
	o := cinct.DefaultOptions()
	o.Shards = 4
	if sampleRate > 0 {
		o.SampleRate = sampleRate
	}
	return o
}

func standardCorpus(sz sizes, seed int64) *corpus {
	ds := trajgen.Singapore2(trajgen.Config{GridW: 26, GridH: 26, NumTrajs: sz.StandardTrajs, MeanLen: 45, Seed: seed})
	return &corpus{name: "standard", trajs: ds.Trajs, opts: indexOptions(0)}
}

// longCorpus is few, long trajectories with timestamps drawn the way
// cmd/cinctbench's temporal section draws them — starts spread over a
// day, 1–4 s per edge — except that the starts are stratified (one per
// equal slot of the day) rather than independent: how many trajectories
// overlap the query window decides the timestamp work per query, and
// with independent starts that number changes by ±9% from seed to seed.
// SampleRate 2 makes locate cheap so it does not mask the timestamp
// layer.
func longCorpus(sz sizes, seed int64) *corpus {
	ds := trajgen.Singapore2(trajgen.Config{GridW: 26, GridH: 26, NumTrajs: sz.LongTrajs, MeanLen: sz.LongMeanLen, Seed: seed + 7})
	rng := rand.New(rand.NewSource(seed + 8))
	times := make([][]int64, len(ds.Trajs))
	for k, tr := range ds.Trajs {
		col := make([]int64, len(tr))
		at := (int64(k)*dayHorizon + rng.Int63n(dayHorizon)) / int64(len(ds.Trajs))
		for i := range col {
			col[i] = at
			at += 1 + rng.Int63n(4)
		}
		times[k] = col
	}
	return &corpus{name: "long", trajs: ds.Trajs, times: times, opts: indexOptions(2)}
}

const dayHorizon = int64(86400)

// gridWalk is a non-backtracking random walk of up to length edges.
func gridWalk(g *roadnet.Graph, rng *rand.Rand, length int) []roadnet.EdgeID {
	cur := roadnet.EdgeID(rng.Intn(g.NumEdges()))
	path := []roadnet.EdgeID{cur}
	for len(path) < length {
		rev, hasRev := g.Reverse(cur)
		var choices []roadnet.EdgeID
		for _, nx := range g.NextEdges(cur) {
			if !hasRev || nx != rev {
				choices = append(choices, nx)
			}
		}
		if len(choices) == 0 {
			break
		}
		cur = choices[rng.Intn(len(choices))]
		path = append(path, cur)
	}
	return path
}

// gridCorpus is the ingest scenario: a 24x24 road grid, a temporal base
// index of noise-free walks, and a pool of noisy GPS traces simulated
// along further walks (noise 0.05 of an edge length, one fix per 15 s).
func gridCorpus(sz sizes, seed int64) *corpus {
	const (
		noise = 0.05
		dt    = int64(15)
	)
	g := roadnet.Grid(24, 24, seed+31)
	rng := rand.New(rand.NewSource(seed + 32))
	c := &corpus{name: "grid", graph: g, opts: indexOptions(0)}
	at := int64(1000)
	for i := 0; i < sz.GridBase; i++ {
		w := gridWalk(g, rng, sz.GridWalkLen)
		row := make([]uint32, len(w))
		col := make([]int64, len(w))
		for j, e := range w {
			row[j] = uint32(e)
			col[j] = at + int64(j)*dt
		}
		at += int64(len(w))*dt + 100
		c.trajs = append(c.trajs, row)
		c.times = append(c.times, col)
	}
	for i := 0; i < sz.GridTraces; i++ {
		w := gridWalk(g, rng, sz.GridWalkLen)
		tr := gps.Simulate(g, w, noise, at, dt, rng)
		at += int64(len(tr.Points))*dt + 100
		c.walks = append(c.walks, w)
		c.traces = append(c.traces, tr)
	}
	return c
}

// op is one read operation: a query posted to /v1/{index}/query.
type op struct {
	q cinct.Query
}

func (o op) kindName() string {
	switch {
	case o.q.Kind == cinct.CountOnly && o.q.Interval != nil:
		return "count_iv"
	case o.q.Kind == cinct.CountOnly:
		return "count"
	case o.q.Interval != nil:
		return "find_iv"
	}
	return "find"
}

func pathKey(p []uint32) string {
	b := make([]byte, 4*len(p))
	for i, e := range p {
		binary.LittleEndian.PutUint32(b[4*i:], e)
	}
	return string(b)
}

// distinctPaths draws n distinct sub-paths from s, skipping any already
// in seen (which it extends).
func distinctPaths(s *querygen.Sampler, n int, seen map[string]bool) [][]uint32 {
	out := make([][]uint32, 0, n)
	// The draw budget only guards a corpus too small to hold n
	// distinct sub-paths; the generated corpora hold far more.
	for tries := 0; len(out) < n && tries < 200*n+1000; tries++ {
		p := s.Next()
		if p == nil {
			break
		}
		if k := pathKey(p); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

func countOps(paths [][]uint32) []op {
	ops := make([]op, len(paths))
	for i, p := range paths {
		ops[i] = op{q: cinct.Query{Path: p, Kind: cinct.CountOnly}}
	}
	return ops
}

func findOps(paths [][]uint32) []op {
	ops := make([]op, len(paths))
	for i, p := range paths {
		ops[i] = op{q: cinct.Query{Path: p, Kind: cinct.Occurrences, Limit: 10}}
	}
	return ops
}

// workloadOps derives the operation list of a read workload from the
// seed. The list is replayed in order; every pass replays the same
// list.
func workloadOps(name string, c *corpus, sz sizes, seed int64) []op {
	switch name {
	case wCountHTTP:
		s := querygen.New(c.trajs, 2, 8, seed+1)
		return countOps(distinctPaths(s, sz.CountOps, map[string]bool{}))
	case wFindLocate:
		s := querygen.New(c.trajs, 2, 3, seed+2)
		return findOps(distinctPaths(s, sz.FindOps, map[string]bool{}))
	case wHotPaths:
		// Half count_http-style, half find_locate-style queries; the
		// set fits the result cache, and Zipf(1.1) draws make a few
		// of them carry most of the traffic.
		half := sz.HotDistinct / 2
		set := countOps(distinctPaths(querygen.New(c.trajs, 2, 8, seed+3), half, map[string]bool{}))
		set = append(set, findOps(distinctPaths(querygen.New(c.trajs, 2, 3, seed+4), half, map[string]bool{}))...)
		rng := rand.New(rand.NewSource(seed + 5))
		rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
		z := rand.NewZipf(rng, 1.1, 1, uint64(len(set)-1))
		ops := make([]op, sz.HotOps)
		for i := range ops {
			ops[i] = set[z.Uint64()]
		}
		return ops
	case wTemporalFind:
		// Bigrams from the last quarter of long trajectories, so the
		// occurrences sit at high offsets; a 30-minute window out of a
		// day. Find and count alternate, each on its own bigram.
		rng := rand.New(rand.NewSource(seed + 9))
		iv := &cinct.Interval{From: dayHorizon / 2, To: dayHorizon/2 + 1800}
		seen := map[string]bool{}
		var ops []op
		for tries := 0; len(ops) < sz.TemporalOps && tries < 200*sz.TemporalOps; tries++ {
			t := c.trajs[rng.Intn(len(c.trajs))]
			if len(t) < 8 {
				continue
			}
			i := len(t) - 2 - rng.Intn(len(t)/4)
			p := t[i : i+2]
			if k := pathKey(p); !seen[k] {
				seen[k] = true
				q := cinct.Query{Path: p, Interval: iv, Kind: cinct.Occurrences, Limit: 10}
				if len(ops)%2 == 1 {
					q.Kind, q.Limit = cinct.CountOnly, 0
				}
				ops = append(ops, op{q: q})
			}
		}
		return ops
	case wGPSIngestMixed:
		// Sub-paths of the walks being ingested, so the answers grow
		// while the reader runs.
		walks := make([][]uint32, len(c.walks))
		for i, w := range c.walks {
			walks[i] = make([]uint32, len(w))
			for j, e := range w {
				walks[i][j] = uint32(e)
			}
		}
		s := querygen.New(walks, 2, 4, seed+10)
		ops := make([]op, sz.ReadOps)
		for i := range ops {
			q := cinct.Query{Path: s.Next(), Kind: cinct.CountOnly}
			if i%2 == 1 {
				q.Kind, q.Limit = cinct.Occurrences, 10
			}
			ops[i] = op{q: q}
		}
		return ops
	}
	panic("unknown workload " + name)
}

// flushOps is a list of distinct count queries longer than the result
// cache: replaying it evicts every cached answer, so a cold workload's
// next pass over its own list starts with no hits. Its paths are longer
// than any workload's, so a flush query never equals a timed one.
func flushOps(c *corpus, sz sizes, seed int64) []op {
	s := querygen.New(c.trajs, 9, 12, seed+20)
	return countOps(distinctPaths(s, sz.FlushQueries, map[string]bool{}))
}

// opsDigest is the SHA-256 of the operation list's canonical encoding;
// two runs with the same seed must print the same digest.
func opsDigest(ops []op) (string, error) {
	h := sha256.New()
	var n [4]byte
	for _, o := range ops {
		b, err := o.q.MarshalBinary()
		if err != nil {
			return "", fmt.Errorf("encoding operation: %w", err)
		}
		binary.LittleEndian.PutUint32(n[:], uint32(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// workloadDigest is the digest of everything the workload's run is fed:
// the operation list and, for the ingest workload, the trace pool.
func workloadDigest(name string, c *corpus, ops []op) (string, error) {
	d, err := opsDigest(ops)
	if err != nil || name != wGPSIngestMixed {
		return d, err
	}
	pool, err := json.Marshal(c.traces)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	h.Write([]byte(d))
	h.Write(pool)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// sampleIndexes picks the operations whose answers are checked against
// brute force: 1% of the list, at least min, fixed by the seed.
func sampleIndexes(n, min int, seed int64) []int {
	k := n / 100
	if k < min {
		k = min
	}
	if k > n {
		k = n
	}
	return rand.New(rand.NewSource(seed + 40)).Perm(n)[:k]
}
