package cinct

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
)

// genTraj draws one random trajectory over a small alphabet (so query
// paths actually collide with stored data).
func genTraj(rng *rand.Rand) []uint32 {
	n := 1 + rng.Intn(12)
	tr := make([]uint32, n)
	for i := range tr {
		tr[i] = uint32(rng.Intn(26))
	}
	return tr
}

// genTimes draws a mostly-monotone timestamp column for a trajectory.
func genTimes(rng *rand.Rand, n int) []int64 {
	col := make([]int64, n)
	t := int64(rng.Intn(10_000))
	for i := range col {
		col[i] = t
		t += int64(rng.Intn(40)) - 5 // occasionally steps backwards
	}
	return col
}

// genPath draws a query path: usually a substring of an existing
// trajectory (guaranteed occurrences), sometimes fully random.
func genPath(rng *rand.Rand, trajs [][]uint32) []uint32 {
	if len(trajs) > 0 && rng.Intn(4) != 0 {
		tr := trajs[rng.Intn(len(trajs))]
		m := 1 + rng.Intn(3)
		if m > len(tr) {
			m = len(tr)
		}
		off := rng.Intn(len(tr) - m + 1)
		return append([]uint32(nil), tr[off:off+m]...)
	}
	p := make([]uint32, 1+rng.Intn(3))
	for i := range p {
		p[i] = uint32(rng.Intn(26))
	}
	return p
}

// oracleSearch answers a Query by brute force over the full live
// corpus (sealed plus delta — the oracle has no such distinction):
// hits in canonical order with EnteredAt populated under an interval,
// plus the CountOnly answer.
func oracleSearch(trajs [][]uint32, times [][]int64, q Query) (hits []Hit, count int) {
	occ := bruteMatches(trajs, q.Path)
	var all []Hit
	for _, m := range occ {
		h := Hit{Match: m}
		if q.Interval != nil {
			at := times[m.Trajectory][m.Offset]
			if at < q.Interval.From || at > q.Interval.To {
				continue
			}
			h.EnteredAt = at
		}
		all = append(all, h)
	}
	count = len(all)
	if q.Kind == CountOnly {
		return nil, count
	}
	if q.Kind == Trajectories {
		var distinct []Hit
		last := -1
		for _, h := range all {
			if h.Trajectory == last {
				continue
			}
			last = h.Trajectory
			h.Offset = -1
			distinct = append(distinct, h)
		}
		all = distinct
	}
	if q.Limit > 0 && len(all) > q.Limit {
		all = all[:q.Limit]
	}
	return all, count
}

func drainWriter(t *testing.T, w *Writer, q Query) ([]Hit, int) {
	t.Helper()
	r, err := w.Search(context.Background(), q)
	if err != nil {
		t.Fatalf("Writer.Search(%+v): %v", q, err)
	}
	if q.Kind == CountOnly {
		n, cerr := r.Count()
		if cerr != nil {
			t.Fatalf("Count: %v", cerr)
		}
		return nil, n
	}
	return drain(t, r), 0
}

func sameHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestIngestDifferentialProperty is the property-based acceptance
// test of live ingestion: for random corpora and random Append / Seal
// / Compact / Search interleavings — over every writer shape (spatial
// and temporal, empty, monolithic and sharded bases) — every Search
// answer must equal the brute-force oracle over the union of sealed
// and delta data, before and after a save/load round trip of the
// sealed state.
func TestIngestDifferentialProperty(t *testing.T) {
	type shape struct {
		name     string
		temporal bool
		base     int // 0 = empty, 1 = monolithic, 3 = sharded
	}
	shapes := []shape{
		{"spatial/empty", false, 0},
		{"spatial/mono", false, 1},
		{"spatial/sharded", false, 3},
		{"temporal/empty", true, 0},
		{"temporal/mono", true, 1},
		{"temporal/sharded", true, 3},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(sh.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(len(sh.name))))
				var trajs [][]uint32
				var times [][]int64

				var w *Writer
				var err error
				if sh.base == 0 {
					if sh.temporal {
						w, err = NewTemporalWriter(WriterConfig{})
					} else {
						w, err = NewWriter(WriterConfig{})
					}
				} else {
					for i := 0; i < 40; i++ {
						tr := genTraj(rng)
						trajs = append(trajs, tr)
						times = append(times, genTimes(rng, len(tr)))
					}
					opts := DefaultOptions()
					opts.Shards = sh.base
					if sh.temporal {
						var base *TemporalIndex
						base, err = BuildTemporal(trajs, times, opts)
						if err == nil {
							w, err = NewTemporalWriterAt(base, WriterConfig{})
						}
					} else {
						var base *Index
						base, err = Build(trajs, opts)
						if err == nil {
							w, err = NewWriterAt(base, WriterConfig{})
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}

				check := func(tag string) {
					q := Query{Path: genPath(rng, trajs), Kind: Kind(rng.Intn(3))}
					switch rng.Intn(4) {
					case 0:
						q.Limit = 1
					case 1:
						q.Limit = 3
					}
					if sh.temporal && rng.Intn(2) == 0 {
						from := int64(rng.Intn(12_000)) - 1000
						q.Interval = &Interval{From: from, To: from + int64(rng.Intn(6000))}
					}
					gotHits, gotCount := drainWriter(t, w, q)
					wantHits, wantCount := oracleSearch(trajs, times, q)
					if q.Kind == CountOnly {
						if gotCount != wantCount {
							t.Fatalf("%s: Count(%+v) = %d, oracle %d", tag, q, gotCount, wantCount)
						}
						return
					}
					if !sameHits(gotHits, wantHits) {
						t.Fatalf("%s: Search(%+v) = %v, oracle %v (sealed %d, delta %d)",
							tag, q, gotHits, wantHits, w.SealedTrajectories(), w.DeltaTrajectories())
					}
				}

				for step := 0; step < 150; step++ {
					switch op := rng.Intn(10); {
					case op < 6: // append
						tr := genTraj(rng)
						var col []int64
						if sh.temporal {
							col = genTimes(rng, len(tr))
						}
						id, aerr := w.Append(tr, col)
						if aerr != nil {
							t.Fatalf("Append: %v", aerr)
						}
						if id != len(trajs) {
							t.Fatalf("Append assigned ID %d, want %d", id, len(trajs))
						}
						trajs = append(trajs, tr)
						times = append(times, col)
					case op < 7: // seal
						before := w.DeltaTrajectories()
						n, serr := w.Seal()
						if serr != nil {
							t.Fatalf("Seal: %v", serr)
						}
						if n != before {
							t.Fatalf("Seal compacted %d rows, delta held %d", n, before)
						}
					case op < 8: // compact one round
						policy := CompactionPolicy{MinShards: 2, MaxShards: 4, TierRatio: 8}
						if rng.Intn(3) == 0 {
							policy = FullCompaction
						}
						before := w.SealedShards()
						res, cerr := w.Compact(policy)
						if cerr != nil {
							t.Fatalf("Compact: %v", cerr)
						}
						if res.Merged > 0 && w.SealedShards() != before-res.Merged+1 {
							t.Fatalf("Compact claimed %d merged but shards went %d -> %d",
								res.Merged, before, w.SealedShards())
						}
					default:
						check("live")
					}
				}

				// Reconstruction must agree for sealed and delta rows alike.
				for i := 0; i < 10 && len(trajs) > 0; i++ {
					id := rng.Intn(len(trajs))
					got, terr := w.Trajectory(id)
					if terr != nil {
						t.Fatalf("Trajectory(%d): %v", id, terr)
					}
					if len(got) != len(trajs[id]) {
						t.Fatalf("Trajectory(%d) len %d, want %d", id, len(got), len(trajs[id]))
					}
					for j := range got {
						if got[j] != trajs[id][j] {
							t.Fatalf("Trajectory(%d) differs at %d", id, j)
						}
					}
				}

				// Final seal, then a save/load round trip of the sealed
				// state must answer identically to the oracle.
				if _, err := w.Seal(); err != nil {
					t.Fatal(err)
				}
				check("post-final-seal")
				if len(trajs) == 0 {
					return
				}
				var buf bytes.Buffer
				if _, err := w.Snapshot().Save(&buf); err != nil {
					t.Fatal(err)
				}
				re, lerr := Load(&buf)
				if lerr != nil {
					t.Fatal(lerr)
				}
				if re.Temporal() != sh.temporal {
					t.Fatalf("reloaded Temporal() = %v, want %v", re.Temporal(), sh.temporal)
				}
				q := Query{Path: genPath(rng, trajs), Kind: Occurrences}
				if sh.temporal {
					q.Interval = &Interval{From: -1 << 60, To: 1 << 60}
				}
				got := searchHits(t, re, q)
				want, _ := oracleSearch(trajs, times, q)
				if !sameHits(got, want) {
					t.Fatalf("reloaded: %v, oracle %v", got, want)
				}
			})
		}
	}
}

// TestWriterCursorSurvivesSeal pins the seal-boundary paging
// guarantee: a cursor taken from a page served partly by the delta
// resumes the exact suffix after the rows were compacted — global IDs
// are stable across seals, so pre-seal pages + post-seal pages
// concatenate to the unpaged stream.
func TestWriterCursorSurvivesSeal(t *testing.T) {
	w, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	path := []uint32{7, 8}
	var trajs [][]uint32
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		tr := append(genTraj(rng), 7, 8) // guarantee a hit per row
		if _, err := w.Append(tr, nil); err != nil {
			t.Fatal(err)
		}
		trajs = append(trajs, tr)
		if i == 9 {
			if _, err := w.Seal(); err != nil { // mixed sealed+delta state
				t.Fatal(err)
			}
		}
	}

	full, _ := drainWriter(t, w, Query{Path: path, Kind: Occurrences})

	r, err := w.Search(context.Background(), Query{Path: path, Kind: Occurrences, Limit: 5})
	if err != nil {
		t.Fatal(err)
	}
	page1 := drain(t, r)
	cursor := r.Cursor()
	if cursor == "" {
		t.Fatal("bounded page handed out no cursor")
	}

	if _, err := w.Seal(); err != nil { // the boundary under test
		t.Fatal(err)
	}

	rest, _ := drainWriter(t, w, Query{Path: path, Kind: Occurrences, Cursor: cursor})
	got := append(append([]Hit{}, page1...), rest...)
	if !sameHits(got, full) {
		t.Fatalf("pre-seal page + post-seal resume = %v, want %v", got, full)
	}
}

// TestWriterAppendValidation pins the typed-error contract of the
// write path.
func TestWriterAppendValidation(t *testing.T) {
	sw, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTemporalWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		w     *Writer
		edges []uint32
		times []int64
	}{
		{"empty trajectory", sw, nil, nil},
		{"times on spatial", sw, []uint32{1}, []int64{5}},
		{"missing times on temporal", tw, []uint32{1}, nil},
		{"short times", tw, []uint32{1, 2}, []int64{5}},
	}
	for _, tc := range cases {
		if _, err := tc.w.Append(tc.edges, tc.times); !errors.Is(err, ErrBadAppend) {
			t.Errorf("%s: err = %v, want ErrBadAppend", tc.name, err)
		}
	}
	if _, err := sw.AppendBatch([][]uint32{{1}, {}}, nil); !errors.Is(err, ErrBadAppend) {
		t.Errorf("batch with empty row: err = %v, want ErrBadAppend", err)
	}
	if sw.NumTrajectories() != 0 {
		t.Errorf("rejected appends left %d trajectories behind", sw.NumTrajectories())
	}
}

// TestWriterAutoSeal pins the background sealer: crossing the
// threshold compacts the delta without any explicit Seal call, and
// the OnSeal hook observes it.
func TestWriterAutoSeal(t *testing.T) {
	sealedCh := make(chan int, 8)
	w, err := NewWriter(WriterConfig{
		SealThreshold: 4,
		OnSeal:        func(n int) { sealedCh <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]uint32{1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
		total++
	}
	w.Close() // waits for in-flight background seals
	sealed := 0
	for {
		select {
		case n := <-sealedCh:
			sealed += n
			continue
		default:
		}
		break
	}
	if sealed == 0 {
		t.Fatal("no background seal fired past the threshold")
	}
	if got := w.SealedTrajectories(); got != sealed {
		t.Fatalf("SealedTrajectories = %d, OnSeal reported %d", got, sealed)
	}
	if got, want := w.NumTrajectories(), total; got != want {
		t.Fatalf("NumTrajectories = %d, want %d", got, want)
	}
	n, err := w.Search(context.Background(), Query{Path: []uint32{1, 2, 3}, Kind: CountOnly})
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := n.Count(); c != total {
		t.Fatalf("Count = %d, want %d (lost rows across auto-seal)", c, total)
	}
}

// TestWriterBackgroundErrorHooks pins the error-routing contract of
// the background sealer: failures are no longer swallowed — they flow
// through WriterConfig.Logf and OnError.
func TestWriterBackgroundErrorHooks(t *testing.T) {
	var logged []string
	var reported []error
	w, err := NewWriter(WriterConfig{
		Logf:    func(format string, args ...any) { logged = append(logged, format) },
		OnError: func(op string, err error) { reported = append(reported, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.reportError("seal", errors.New("disk on fire"))
	if len(logged) != 1 || len(reported) != 1 {
		t.Fatalf("hooks fired %d/%d times, want 1/1", len(logged), len(reported))
	}
	if reported[0].Error() != "disk on fire" {
		t.Fatalf("OnError got %v", reported[0])
	}
	// Hookless writers must stay safe to report through.
	bare, err := NewWriter(WriterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	bare.reportError("seal", errors.New("quietly"))
}

// TestAppendSealed pins the index-layer compaction primitive: the
// returned index serves the union while the receiver is untouched.
func TestAppendSealed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var trajs [][]uint32
	for i := 0; i < 25; i++ {
		trajs = append(trajs, genTraj(rng))
	}
	opts := DefaultOptions()
	opts.Shards = 2
	si, err := Build(trajs, opts)
	if err != nil {
		t.Fatal(err)
	}
	extra := [][]uint32{{1, 2, 3}, {2, 3}}
	grown, err := si.AppendSealed(extra, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := grown.NumTrajectories(), len(trajs)+len(extra); got != want {
		t.Fatalf("grown holds %d trajectories, want %d", got, want)
	}
	if got, want := si.NumTrajectories(), len(trajs); got != want {
		t.Fatalf("AppendSealed mutated the receiver: %d trajectories, want %d", got, want)
	}
	all := append(append([][]uint32{}, trajs...), extra...)
	path := []uint32{2, 3}
	got, err := search(grown, Query{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteMatches(all, path)
	if len(got) != len(want) {
		t.Fatalf("Find = %v, want %v", got, want)
	}
	for i := range got {
		if got[i].Match != want[i] {
			t.Fatalf("Find = %v, want %v", got, want)
		}
	}
}
