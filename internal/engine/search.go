package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"iter"
	"time"

	"cinct"
)

// CacheStats reports the shared result cache's lifetime hits and
// misses — the cinct_cache_hits_total and cinct_cache_misses_total
// counters, so /v1/indexes and /metrics agree — and its resident
// entries.
func (e *Engine) CacheStats() (hits, misses uint64, entries int) {
	return uint64(e.metrics.cacheHits.Value()), uint64(e.metrics.cacheMisses.Value()), e.cache.len()
}

// Engine cursors are the library's opaque tokens wrapped in an
// envelope binding them to the identity of the index binding they were
// minted against: the in-process epoch plus the load-time signature
// (see indexSig). The library token positions into a result sequence
// by (trajectory, offset); that position keeps meaning across Append
// and Seal (IDs only ever extend) but not across Reload, where the
// file may hold renumbered data and a resume would return silently
// wrong pages. The epoch catches reloads within a process; the
// signature catches the file changing across a restart, where every
// epoch resets to 1 and would falsely validate.
//
// 0xE2, not 1: the library's own tokens start with their version byte
// 1, and the envelope byte must not collide with them or a bare
// library token would "unwrap" into garbage instead of failing as
// ErrBadCursor. (0xE1 was the pre-signature envelope; changing the
// byte makes old tokens fail as bad cursors rather than misparse.)
const engineCursorVersion = 0xE2

// wrapCursor envelopes a library cursor token with the identity it was
// minted under. Empty tokens (exhausted streams) stay empty.
func wrapCursor(epoch, sig uint64, token string) string {
	if token == "" {
		return ""
	}
	b := make([]byte, 0, 1+2*binary.MaxVarintLen64+len(token))
	b = append(b, engineCursorVersion)
	b = binary.AppendUvarint(b, epoch)
	b = binary.AppendUvarint(b, sig)
	b = append(b, token...)
	return base64.RawURLEncoding.EncodeToString(b)
}

// unwrapCursor decodes an engine cursor envelope back into the inner
// library token and its minting identity. Malformed envelopes
// (including bare library tokens, which never leave the engine) fail
// with cinct.ErrBadCursor; shape validation of the inner token stays
// with the library.
func unwrapCursor(s string) (epoch, sig uint64, token string, err error) {
	raw, derr := base64.RawURLEncoding.DecodeString(s)
	if derr != nil || len(raw) < 2 || raw[0] != engineCursorVersion {
		return 0, 0, "", fmt.Errorf("%w: not an engine cursor", cinct.ErrBadCursor)
	}
	epoch, n := binary.Uvarint(raw[1:])
	if n <= 0 {
		return 0, 0, "", fmt.Errorf("%w: malformed engine cursor", cinct.ErrBadCursor)
	}
	sig, m := binary.Uvarint(raw[1+n:])
	if m <= 0 || len(raw) == 1+n+m {
		// An envelope with no inner token would silently restart the
		// query from page one instead of resuming it.
		return 0, 0, "", fmt.Errorf("%w: malformed engine cursor", cinct.ErrBadCursor)
	}
	return epoch, sig, string(raw[1+n+m:]), nil
}

// page is the materialized, immutable form of one Search run — the
// value the shared LRU holds. CountOnly pages carry only the count;
// hit pages carry the hits in canonical order plus the resume cursor
// the run ended with, in its final (enveloped) form.
type page struct {
	count  int
	hits   []cinct.Hit
	cursor string
}

// Results is the engine's streaming query handle: either a replay of a
// cached page or a live library run that accumulates into the cache as
// it is consumed. A live Results holds one engine worker slot until
// the stream is drained, fails, or Close is called — callers that may
// abandon iteration early must defer Close (draining consumers, like
// the HTTP handler, get the release for free).
// Not safe for concurrent use.
type Results struct {
	q     cinct.Query
	epoch uint64 // identity the search ran at; binds handed-out cursors
	sig   uint64
	page  *page // replay source; nil while live
	pos   int

	live *cinct.Results
	e    *Engine
	key  cacheKey
	held bool
	// name/start/recorded close the metrics account exactly once when
	// the live stream finishes, fails, or is abandoned via Close.
	name     string
	start    time.Time
	recorded bool
	// acc accumulates live hits for cache population; it is dropped
	// (and tooBig set) once the page exceeds maxCachedPageHits, so an
	// unbounded streaming query never materializes O(result) memory
	// server-side.
	acc    []cinct.Hit
	tooBig bool
	closed bool

	n int
	// last/hasLast track the replay position for Cursor; the live path
	// gets its cursor from the library handle instead.
	last    cinct.Hit
	hasLast bool
	err     error
}

// maxCachedPageHits bounds the size of a Search page the engine will
// hold in the shared LRU (which caps entries, not bytes). Larger
// streams still serve fine — they just recompute on the next identical
// query instead of pinning a huge slice in cache memory.
const maxCachedPageHits = 4096

// All returns the hit stream in canonical (Trajectory, Offset) order.
// Like the library iterator it may be resumed after a break; a query
// or decode failure is yielded once as the final element's error.
func (r *Results) All() iter.Seq2[cinct.Hit, error] {
	return func(yield func(cinct.Hit, error) bool) {
		if r.err != nil {
			yield(cinct.Hit{}, r.err)
			return
		}
		if r.page != nil {
			for r.pos < len(r.page.hits) {
				h := r.page.hits[r.pos]
				r.pos++
				r.n++
				r.last, r.hasLast = h, true
				if !yield(h, nil) {
					return
				}
			}
			return
		}
		if r.live == nil || r.closed {
			return
		}
		// The library stream resumes where a break left it, and turns a
		// panic over corrupt index state into cinct.ErrCorrupt itself.
		for h, herr := range r.live.All() {
			if herr != nil {
				r.fail(herr)
				yield(cinct.Hit{}, herr)
				return
			}
			if !r.tooBig {
				r.acc = append(r.acc, h)
				if len(r.acc) > maxCachedPageHits {
					r.acc, r.tooBig = nil, true
				}
			}
			r.n++
			if !yield(h, nil) {
				return
			}
		}
		r.finishLive()
	}
}

// finishLive runs when the live stream ends naturally (exhausted, or
// Limit hits yielded): the accumulated page enters the shared cache —
// unless the stream outgrew maxCachedPageHits — so the next identical
// Query replays without touching the index.
func (r *Results) finishLive() {
	r.closed = true
	if !r.tooBig {
		r.e.cache.put(r.key, &page{hits: r.acc, count: len(r.acc), cursor: wrapCursor(r.epoch, r.sig, r.live.Cursor())})
	}
	r.record(nil)
	r.releaseSlot()
}

func (r *Results) fail(err error) {
	r.err = err
	r.record(err)
	r.releaseSlot()
}

// record closes the live run's metrics account (latency, cost,
// slow-query log) exactly once, whichever of finishLive, fail or Close
// gets there first.
func (r *Results) record(err error) {
	if r.recorded || r.live == nil {
		return
	}
	r.recorded = true
	r.e.recordQuery(r.name, r.q, r.start, r.live.Stats(), err)
}

func (r *Results) releaseSlot() {
	if r.held {
		r.held = false
		r.e.release()
	}
}

// Close releases the worker slot held by a live run whose iteration
// was abandoned before the stream ended, and ends the stream: a later
// All yields nothing (the engine's concurrency bound must not be
// bypassed by resuming a slot-less iterator). Idempotent; a no-op for
// replayed or drained Results.
func (r *Results) Close() {
	if r.live != nil {
		r.closed = true
		r.record(r.err)
	}
	r.releaseSlot()
}

// Count returns the query's count: the full occurrence count for
// CountOnly queries, otherwise the total number of hits after draining
// whatever the iterator has not yielded yet.
func (r *Results) Count() (int, error) {
	if r.q.Kind == cinct.CountOnly {
		if r.err != nil {
			return 0, r.err
		}
		return r.page.count, nil
	}
	for _, err := range r.All() {
		if err != nil {
			return r.n, err
		}
	}
	return r.n, nil
}

// Cursor returns the token that resumes the query just past the last
// hit yielded, or "" when the stream is known exhausted (or nothing
// has been yielded). Semantics mirror cinct.Results.Cursor, except
// that engine cursors carry the epoch envelope: resuming after a
// Reload fails with ErrStaleCursor instead of paging through
// renumbered data, while resuming across Append or Seal keeps
// working.
func (r *Results) Cursor() string {
	if r.err != nil {
		return ""
	}
	if r.live != nil {
		return wrapCursor(r.epoch, r.sig, r.live.Cursor())
	}
	if r.page != nil {
		if r.pos >= len(r.page.hits) {
			return r.page.cursor
		}
		if r.hasLast {
			return wrapCursor(r.epoch, r.sig, r.q.CursorAfter(r.last))
		}
	}
	return ""
}

// Search is the engine's single query entry point: every operation —
// spatial or temporal, counting, locating or listing trajectories — is
// a cinct.Query executed here, cached here, and bounded by the same
// worker pool. Results are keyed by (binding, generation, canonical
// query encoding), so a Reload, an Append or a Close then Load of the
// same name instantly orphans stale pages. Errors are the library's,
// passed through: an interval query against a spatial-only index fails
// with cinct.ErrNoTimestamps, a descriptor violation (negative limit,
// unknown kind) with cinct.ErrBadQuery.
func (e *Engine) Search(ctx context.Context, name string, q cinct.Query) (*Results, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if q.Cursor != "" {
		epoch, sig, inner, cerr := unwrapCursor(q.Cursor)
		if cerr != nil {
			return nil, cerr
		}
		if epoch != v.epoch || sig != v.sig {
			return nil, fmt.Errorf("%w: %q changed since the cursor was issued", ErrStaleCursor, v.name)
		}
		// The library sees only its own token; the cache key is built
		// from the unwrapped form so a page is reusable whatever
		// identity envelope it arrived in.
		q.Cursor = inner
	}
	enc, err := q.MarshalBinary()
	if err != nil {
		return nil, err
	}
	key := cacheKey{binding: v.binding, gen: v.gen, query: string(enc)}
	start := time.Now()
	e.metrics.queries.With(q.Kind.String()).Inc() // a valid kind: MarshalBinary checked it
	if val, ok := e.cache.get(key); ok {
		e.metrics.cacheHits.Inc()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, nil)
		return &Results{q: q, epoch: v.epoch, sig: v.sig, page: val.(*page)}, nil
	}
	e.metrics.cacheMisses.Inc()
	if err := e.acquire(ctx); err != nil {
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	lr, err := func() (lr *cinct.Results, err error) {
		defer recoverQuery(&err)
		return v.w.Search(ctx, q)
	}()
	if err != nil {
		e.release()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	if q.Kind == cinct.CountOnly {
		n, cerr := lr.Count()
		e.release()
		e.recordQuery(v.name, q, start, lr.Stats(), cerr)
		if cerr != nil {
			return nil, cerr
		}
		p := &page{count: n}
		e.cache.put(key, p)
		return &Results{q: q, epoch: v.epoch, sig: v.sig, page: p}, nil
	}
	return &Results{q: q, epoch: v.epoch, sig: v.sig,
		live: lr, e: e, key: key, held: true,
		name: v.name, start: start, acc: make([]cinct.Hit, 0, 16)}, nil
}

// Trajectory reconstructs trajectory id of index name.
func (e *Engine) Trajectory(ctx context.Context, name string, id int) ([]uint32, error) {
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	return v.w.Trajectory(id)
}

// SubPath extracts edges [from, to) of trajectory id of index name.
func (e *Engine) SubPath(ctx context.Context, name string, id, from, to int) ([]uint32, error) {
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if err := e.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.release()
	return v.w.SubPath(id, from, to)
}

// recoverQuery is the last panic boundary: a panic escaping a library
// query (which contains its own as cinct.ErrCorrupt) becomes that
// error too, so corrupt in-memory state degrades a single request
// instead of crashing the serving process.
func recoverQuery(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %v", cinct.ErrCorrupt, r)
	}
}
