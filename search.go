package cinct

import (
	"context"
	"fmt"
	"iter"
	"sync"
)

// containCorrupt runs fn and converts any panic escaping it into an
// ErrCorruptIndex error. View constructors over mmap'd v3 containers
// validate structural invariants in O(metadata) but deliberately skip
// O(n) semantic checks (label-in-context, LF-cycle coverage), so deep
// corruption can first surface as an out-of-bounds panic inside a
// query. Go guarantees such faults are recoverable panics rather than
// memory unsafety; this wrapper is the containment boundary that turns
// them into a typed error at the query API instead of crashing the
// process.
func containCorrupt(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: query panicked: %v", ErrCorruptIndex, r)
		}
	}()
	return fn()
}

// Hit is one streamed Search result. For Occurrences queries it is an
// occurrence — Match plus, when the query carried an Interval, the
// entry time of the path's first edge. For Trajectories queries,
// Trajectory identifies the distinct trajectory, Offset is -1, and
// EnteredAt (interval queries only) is the entry time of the first
// occurrence that satisfied the interval.
type Hit struct {
	Match
	// EnteredAt is meaningful only when the Query had an Interval.
	EnteredAt int64
}

// Results is the handle returned by Search: a lazy, single-pass view
// over the result stream. All yields hits in canonical (Trajectory,
// Offset) order, locating further units, decoding timestamps and
// deduplicating on demand — breaking out of the loop stops that work
// immediately. Iteration may be resumed by ranging over All again;
// Count drains whatever remains. A Results is not safe for concurrent
// use.
type Results struct {
	q     Query
	count int // CountOnly answer
	// units are the search units in ascending ID order. Units own
	// contiguous ascending ID ranges, so the canonical merge is a
	// concatenation: cur is the first unit not yet drained.
	units  []unitCursor
	stream *searchShared
	cur    int

	n         int // hits yielded so far
	last      Hit
	hasLast   bool
	exhausted bool
	err       error
}

// All returns the hit stream. The first ranged loop starts it;
// breaking out pauses it (the underlying shard iterators keep their
// position, and a later range resumes), and iteration ends for good
// when the stream is exhausted or Limit hits have been yielded. A
// context cancellation, decoding error or failure to locate a later
// wave is yielded once as the final element's error.
func (r *Results) All() iter.Seq2[Hit, error] {
	return func(yield func(Hit, error) bool) {
		if r.exhausted {
			return
		}
		if r.err != nil {
			yield(Hit{}, r.err)
			return
		}
		for {
			if r.q.Limit > 0 && r.n >= r.q.Limit {
				return
			}
			h, ok, err := r.next()
			if err != nil {
				r.err = err
				yield(Hit{}, err)
				return
			}
			if !ok {
				r.exhausted = true
				return
			}
			r.n++
			r.last, r.hasLast = h, true
			if !yield(h, nil) {
				return
			}
		}
	}
}

// Count returns the query's count. For CountOnly queries it is the
// full occurrence count, computed eagerly by Search. For other kinds
// it drains any hits not yet consumed through All and returns the
// total number of hits yielded (bounded by Limit).
func (r *Results) Count() (int, error) {
	if r.q.Kind == CountOnly {
		return r.count, r.err
	}
	for _, err := range r.All() {
		if err != nil {
			return r.n, err
		}
	}
	return r.n, nil
}

// Cursor returns the opaque token that resumes the query just past the
// last hit yielded so far: pass it as Query.Cursor (same path,
// interval and kind; any Limit) to receive the exact suffix of the
// stream. It returns "" when the stream is known exhausted or nothing
// has been yielded yet. A page that stopped exactly at the last hit
// returns a valid cursor whose next page is empty.
func (r *Results) Cursor() string {
	if r.exhausted || !r.hasLast {
		return ""
	}
	return r.q.CursorAfter(r.last)
}

// compiled is the resolved execution form of a Query.
type compiled struct {
	path        []uint32
	kind        Kind
	hasInterval bool
	from, to    int64
	limit       int
	hasAfter    bool
	afterT      int // cursor resume position, global coordinates
	afterO      int
}

func compile(q Query) (compiled, error) {
	if err := q.validate(); err != nil {
		return compiled{}, err
	}
	c := compiled{path: q.Path, kind: q.Kind, limit: q.Limit}
	if q.Interval != nil {
		c.hasInterval = true
		c.from, c.to = q.Interval.From, q.Interval.To
	}
	if q.Kind != CountOnly {
		var err error
		c.afterT, c.afterO, c.hasAfter, err = q.decodeCursor()
		if err != nil {
			return compiled{}, err
		}
	}
	return c, nil
}

// Search executes a Query against the index: a plan prices every shard
// with one O(|path|) backward search (its suffix-range width is its
// exact occurrence count, which alone answers a CountOnly query without
// an interval), then shards are located in ID order, in waves — each
// the shortest run whose widths cover what the page still needs — and
// a wave starts only when the stream is pulled past the last located
// shard. Timestamp decoding, interval filtering and deduplication also
// happen on pull, so a small Limit or an abandoned iteration does
// proportionally less work. Interval queries need timestamps (a
// TemporalIndex): candidates are pruned against per-trajectory (min,
// max) summaries before any timestamp decode and probed lazily during
// iteration; on a spatial index they fail with ErrNoTimestamps.
func (ix *Index) Search(ctx context.Context, q Query) (*Results, error) {
	if q.Interval != nil && !ix.Temporal() {
		return nil, ErrNoTimestamps
	}
	return runSearch(ctx, q, ix, nil)
}

// runSearch is the transport between a compiled query and the result
// stream, shared by the immutable Index and the live Writer: the units
// are ix's shards followed by the delta snapshot (nil on an Index) —
// each is planned, then contributes candidates through the same
// collect / advance protocol. The first wave runs here, so its errors
// come back from Search rather than from the stream.
func runSearch(ctx context.Context, q Query, ix *Index, delta *deltaSnap) (*Results, error) {
	c, err := compile(q)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	units := make([]unitCursor, len(ix.shards), len(ix.shards)+1)
	for s, sh := range ix.shards {
		units[s] = unitCursor{sh: sh, base: ix.bounds[s], n: ix.bounds[s+1] - ix.bounds[s]}
	}
	if delta != nil && delta.len() > 0 {
		units = append(units, unitCursor{d: delta, base: delta.base, n: delta.len()})
	}
	// Concatenation is the merge only while every unit starts where the
	// previous one ended; spliced and the delta's base guarantee it.
	for i := 1; i < len(units); i++ {
		if end := units[i-1].base + units[i-1].n; units[i].base != end {
			return nil, fmt.Errorf("cinct: search unit %d starts at trajectory %d, previous ends at %d",
				i, units[i].base, end)
		}
	}
	if (c.kind != CountOnly || c.hasInterval) && !ix.hasLoc {
		return nil, ErrNoLocate
	}
	if err := plan(c, units); err != nil {
		return nil, err
	}
	r := &Results{q: q, units: units, stream: &searchShared{ctx: ctx, c: c}}
	if c.kind == CountOnly {
		if r.count, err = countUnits(ctx, c, units); err != nil {
			return nil, err
		}
		r.exhausted = true
		return r, nil
	}
	if err := r.wave(); err != nil {
		return nil, err
	}
	return r, nil
}

// plan prices every unit before any locate: a sealed unit's suffix
// range [sp, ep) is one O(|path|) backward search. A unit with nothing
// to contribute — an empty range, or an ID range wholly at or before
// the resume cursor — is never located; every other unit (the delta,
// whose width stays unknown until it is scanned, included) is left
// pending for the execution.
func plan(c compiled, units []unitCursor) error {
	return containCorrupt(func() error {
		for i := range units {
			u := &units[i]
			u.lastTraj = -1
			if len(c.path) == 0 || u.beforeCursor(c) {
				continue
			}
			if u.sh != nil {
				u.sp, u.ep = u.sh.suffixRange(c.path)
			}
			u.pending = u.d != nil || u.sp < u.ep
		}
		return nil
	})
}

// wave locates the next run of pending units in ID order: the shortest
// run whose planned widths cover the hits the page still needs — every
// remaining unit when there is no limit. Widths are exact for
// Occurrences without an interval and upper bounds otherwise (an
// interval, a cursor inside the unit or deduplication can drop
// candidates), so a short wave is followed by another when the stream
// is pulled past it. The run's units collect in parallel, then each
// primes its head. A cancelled ctx starts no wave.
func (r *Results) wave() error {
	s := r.stream
	if err := s.ctx.Err(); err != nil {
		return err
	}
	need := s.c.limit - r.n
	var run []*unitCursor
	for i := r.cur; i < len(r.units) && (s.c.limit == 0 || need > 0); i++ {
		if u := &r.units[i]; u.pending {
			u.pending = false
			run = append(run, u)
			need -= int(u.ep - u.sp)
		}
	}
	runUnits(run, func(_ int, u *unitCursor) {
		u.err = containCorrupt(func() error { return u.collect(s.ctx, s.c) })
	})
	for _, u := range run {
		if u.err == nil {
			u.advance(s)
		}
		if u.err != nil {
			return u.err
		}
	}
	return nil
}

// next yields the head of the first undrained unit and advances it,
// starting the next wave when the stream reaches a unit not yet
// located.
func (r *Results) next() (Hit, bool, error) {
	for ; r.cur < len(r.units); r.cur++ {
		u := &r.units[r.cur]
		if u.pending {
			if err := r.wave(); err != nil {
				return Hit{}, false, err
			}
		}
		if !u.hasHead {
			continue
		}
		h := u.head
		u.advance(r.stream)
		if u.err != nil {
			return Hit{}, false, u.err
		}
		return h, true, nil
	}
	return Hit{}, false, nil
}

// unitCursor is one unit's contribution to a Search: a shard (or the
// delta) over a contiguous global-ID range, its planned suffix range,
// the canonically sorted candidate set produced by collect, and the
// lazy iteration state advanced as the stream is pulled. A unit is
// backed either by a compressed shard (sh) or by a live delta snapshot
// (d) — the collect/advance protocol is identical, only the locate and
// timestamp probes dispatch differently.
type unitCursor struct {
	sh   *shard     // compressed shard; nil for a delta unit
	d    *deltaSnap // uncompressed delta snapshot; nil for sealed units
	base int        // global ID of the unit's first trajectory
	n    int        // trajectories in the unit

	// sp, ep is the planned suffix range of a sealed unit (empty for
	// the delta); pending marks a unit planned for locate but not yet
	// located.
	sp, ep  int64
	pending bool

	cands []Match // shard-local, canonically sorted
	pos   int

	lastTraj int // last yielded trajectory (global), for dedupe; -1 none
	head     Hit
	hasHead  bool
	err      error

	// st is the unit's work account. Plain fields are sound: collect
	// and count touch the unit from a single goroutine of a wave's
	// parallel fan-out, and advance runs only on the pulling goroutine
	// after that fan-out has joined.
	st QueryStats
}

// beforeCursor reports whether the unit's whole ID range lies at or
// before the resume cursor, so it cannot contribute a hit.
func (u *unitCursor) beforeCursor(c compiled) bool {
	if !c.hasAfter {
		return false
	}
	last := u.base + u.n - 1
	if c.kind == Trajectories {
		return last <= c.afterT
	}
	return last < c.afterT
}

// locate enumerates every occurrence of path in the unit — the SA-sample
// walk over the planned suffix range for compressed units, a plain scan
// for the delta.
func (u *unitCursor) locate(ctx context.Context, path []uint32, visit func(doc, offset int)) error {
	if u.d != nil {
		return u.d.locate(ctx, path, &u.st, visit)
	}
	return u.sh.locate(ctx, u.sp, u.ep, len(path), &u.st, visit)
}

// tsMinMax returns the (min, max) timestamp summary of a unit-local
// trajectory; tsAt probes one timestamp. Valid only under an interval
// query, where every unit carries temporal data.
func (u *unitCursor) tsMinMax(local int) (int64, int64) {
	if u.d != nil {
		return u.d.minMax(local)
	}
	return u.sh.ts.MinMax(local)
}

func (u *unitCursor) tsAt(local, offset int) int64 {
	if u.d != nil {
		u.st.DecodeSteps++ // one plain column access
		return u.d.at(local, offset)
	}
	v, decodes := u.sh.ts.AtCounted(local, offset)
	u.st.DecodeSteps += int64(decodes)
	return v
}

// runUnits executes fn once per unit, in parallel when there is more
// than one — the one fan-out of the execution phase.
func runUnits(units []*unitCursor, fn func(i int, u *unitCursor)) {
	if len(units) == 1 {
		fn(0, units[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(units))
	for i, u := range units {
		go func(i int, u *unitCursor) {
			defer wg.Done()
			fn(i, u)
		}(i, u)
	}
	wg.Wait()
}

// countUnits answers a CountOnly query from the plan. Without an
// interval a sealed unit's count is its planned width, with no locate
// and no goroutine, and only the delta is scanned; with one, every
// pending unit runs a locate-prune-probe scan, in parallel. Either
// scan honors ctx.
func countUnits(ctx context.Context, c compiled, units []unitCursor) (int, error) {
	total := 0
	var scan []*unitCursor
	for i := range units {
		switch u := &units[i]; {
		case !u.pending:
		case c.hasInterval || u.d != nil:
			scan = append(scan, u)
		default:
			u.st.ShardsProbed++
			total += int(u.ep - u.sp)
		}
	}
	if len(scan) == 0 {
		return total, nil
	}
	counts := make([]int, len(scan))
	runUnits(scan, func(i int, u *unitCursor) {
		u.err = containCorrupt(func() error {
			u.st.ShardsProbed++
			return u.locate(ctx, c.path, func(doc, offset int) {
				if !c.hasInterval {
					counts[i]++
				} else if lo, hi := u.tsMinMax(doc); hi < c.from || lo > c.to {
					u.st.SummaryPruned++
				} else if at := u.tsAt(doc, offset); at >= c.from && at <= c.to {
					counts[i]++
				}
			})
		})
	})
	for i, u := range scan {
		if u.err != nil {
			return 0, u.err
		}
		total += counts[i]
	}
	return total, nil
}

// collect runs the locate phase for one unit: enumerate the planned
// suffix range (checking ctx periodically), skip candidates at or
// before the resume cursor, prune against timestamp summaries when an
// interval is present, and sort the survivors canonically into the
// unit's lazily consumed candidate stream. An interval can still reject
// a candidate on pull, so only without one is every candidate a
// definite hit — and only then is the working set cut here to the
// canonically smallest `limit` candidates (O(limit) memory however many
// occurrences the suffix range holds) and, for Trajectories, to one
// Match{id, -1} per distinct trajectory. Every kept candidate rides the
// one matchHeap, so the bounded and unbounded sets cannot drift from
// the canonical order.
func (u *unitCursor) collect(ctx context.Context, c compiled) error {
	u.st.ShardsProbed++
	bound, distinct := 0, false
	if !c.hasInterval {
		bound, distinct = c.limit, c.kind == Trajectories
	}
	var seen map[int]struct{}
	if distinct {
		seen = make(map[int]struct{})
	}
	var h matchHeap
	err := u.locate(ctx, c.path, func(doc, offset int) {
		if u.skipByCursor(c, doc, offset) {
			return
		}
		if c.hasInterval {
			if lo, hi := u.tsMinMax(doc); hi < c.from || lo > c.to {
				u.st.SummaryPruned++
				return
			}
		}
		m := Match{Trajectory: doc, Offset: offset}
		if distinct {
			if _, dup := seen[doc]; dup {
				return
			}
			m.Offset = -1
		}
		switch {
		case bound == 0 || len(h) < bound:
			h.push(m)
		case matchLess(m, h[0]):
			if distinct {
				delete(seen, h[0].Trajectory)
			}
			h[0] = m
			h.siftDown(0)
		default:
			return
		}
		if distinct {
			seen[doc] = struct{}{}
		}
	})
	if err != nil {
		return err
	}
	u.cands = []Match(h)
	u.st.CandidateRows += int64(len(u.cands))
	sortMatches(u.cands)
	return nil
}

// skipByCursor reports whether a shard-local candidate falls at or
// before the resume position.
func (u *unitCursor) skipByCursor(c compiled, doc, offset int) bool {
	if !c.hasAfter {
		return false
	}
	g := doc + u.base
	if c.kind == Trajectories {
		return g <= c.afterT
	}
	return g < c.afterT || (g == c.afterT && offset <= c.afterO)
}

// searchShared is the per-search state every unit's advance consults.
type searchShared struct {
	ctx context.Context
	c   compiled
}

// advance moves the unit to its next qualifying hit: the pull step
// where interval filtering (one checkpointed timestamp probe per
// candidate) and trajectory deduplication happen. It stops on context
// cancellation, so an abandoned or cancelled iteration performs no
// further decodes. Timestamp probes against a corrupt mapped store are
// contained here: a panic surfaces as ErrCorruptIndex on the unit.
func (u *unitCursor) advance(s *searchShared) {
	if err := containCorrupt(func() error { u.advanceStep(s); return nil }); err != nil {
		u.err = err
		u.hasHead = false
	}
}

func (u *unitCursor) advanceStep(s *searchShared) {
	c := s.c
	for u.pos < len(u.cands) {
		if err := s.ctx.Err(); err != nil {
			u.err = err
			u.hasHead = false
			return
		}
		m := u.cands[u.pos]
		u.pos++
		global := m.Trajectory + u.base
		if c.kind == Trajectories && global == u.lastTraj {
			continue
		}
		h := Hit{Match: Match{Trajectory: global, Offset: m.Offset}}
		if c.hasInterval {
			at := u.tsAt(m.Trajectory, m.Offset)
			if at < c.from || at > c.to {
				continue
			}
			h.EnteredAt = at
		}
		if c.kind == Trajectories {
			u.lastTraj = global
			h.Offset = -1
		}
		u.head, u.hasHead = h, true
		return
	}
	u.hasHead = false
}

// matchLess is the one canonical (Trajectory, Offset) comparison: the
// per-shard sort and the candidate heap both order through it, so they
// cannot disagree.
func matchLess(a, b Match) bool {
	if a.Trajectory != b.Trajectory {
		return a.Trajectory < b.Trajectory
	}
	return a.Offset < b.Offset
}

// matchHeap is a max-heap of matches under canonical order: collect's
// candidate set, whose root is the one to evict once `limit` are held.
type matchHeap []Match

func (h *matchHeap) push(m Match) {
	*h = append(*h, m)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !matchLess((*h)[p], (*h)[i]) {
			break
		}
		(*h)[p], (*h)[i] = (*h)[i], (*h)[p]
		i = p
	}
}

func (h matchHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && matchLess(h[largest], h[l]) {
			largest = l
		}
		if r < len(h) && matchLess(h[largest], h[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
