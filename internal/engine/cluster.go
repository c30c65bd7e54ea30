package engine

import (
	"context"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"sync"
	"time"

	"cinct"
	"cinct/internal/cluster"
	"cinct/internal/wire"
)

// ErrPartial reports a scatter-gather query that could not cover the
// whole cluster: one or more peers were unreachable after retry, so
// rather than silently serving a truncated answer the query fails
// typed. Wraps as *PartialError carrying the unreachable peer list.
var ErrPartial = errors.New("engine: partial cluster result (peers unreachable)")

// PartialError lists the peers a scatter-gather could not reach. It
// unwraps to ErrPartial so callers can errors.Is it; transports
// surface the peer list (the HTTP server sets X-CiNCT-Partial).
type PartialError struct {
	Peers []string
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("engine: partial cluster result: unreachable peers %v", e.Peers)
}

func (e *PartialError) Unwrap() error { return ErrPartial }

// Scope selects how much of the cluster a Search covers.
type Scope int

const (
	// ScopeAuto is the default: on a clustered engine, hit-producing
	// queries scatter-gather across the peer set; on a single node (or
	// for CountOnly, which every node can answer exactly from its full
	// local copy) the query runs locally.
	ScopeAuto Scope = iota
	// ScopeOwned answers only from trajectories this node owns under
	// the cluster's routing ring, and never fans out. It is the scope
	// peers request from each other (X-CiNCT-Scope: owned); the union
	// of every node's owned answer is exactly the global answer.
	ScopeOwned
)

// Cluster returns the engine's cluster view, nil when not clustered.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// identity tokens ----------------------------------------------------

// encodeIdent packs an index binding's (epoch, load signature) into the
// opaque token scoped query summaries carry, so a coordinator can mint
// resume cursors that the owning peer will validate.
func encodeIdent(epoch, sig uint64) string {
	b := binary.AppendUvarint(nil, epoch)
	b = binary.AppendUvarint(b, sig)
	return base64.RawURLEncoding.EncodeToString(b)
}

func decodeIdent(s string) (epoch, sig uint64, err error) {
	raw, derr := base64.RawURLEncoding.DecodeString(s)
	if derr != nil {
		return 0, 0, fmt.Errorf("engine: bad ident token")
	}
	epoch, n := binary.Uvarint(raw)
	if n <= 0 {
		return 0, 0, fmt.Errorf("engine: bad ident token")
	}
	sig, m := binary.Uvarint(raw[n:])
	if m <= 0 || n+m != len(raw) {
		return 0, 0, fmt.Errorf("engine: bad ident token")
	}
	return epoch, sig, nil
}

// cluster cursors ----------------------------------------------------

// clusterCursorVersion tags a coordinator-minted resume token. Distinct
// from engineCursorVersion: a cluster cursor resumes a scatter-gather
// (position + per-node identities), an engine cursor resumes one node's
// stream.
const clusterCursorVersion = 0xE3

// nodeCursorEntry is one not-yet-exhausted node in a cluster cursor:
// its address plus the (epoch, sig) identity its data had when the
// cursor was minted, so the resumed per-node suffix re-routes to its
// owner and fails typed if that owner's index changed.
type nodeCursorEntry struct {
	addr       string
	epoch, sig uint64
}

// clusterCursor is the decoded form: the ring configuration it was
// minted under, the global resume position (last yielded hit — every
// node resumes past it, since all nodes share the canonical order),
// and the surviving nodes. A node absent from entries was exhausted.
type clusterCursor struct {
	ringFP uint64
	last   cinct.Hit
	nodes  []nodeCursorEntry
}

func (cc *clusterCursor) entry(addr string) (nodeCursorEntry, bool) {
	for _, n := range cc.nodes {
		if n.addr == addr {
			return n, true
		}
	}
	return nodeCursorEntry{}, false
}

func encodeClusterCursor(ringFP uint64, last cinct.Hit, entries []nodeCursorEntry) string {
	b := make([]byte, 0, 64)
	b = append(b, clusterCursorVersion)
	b = binary.AppendUvarint(b, ringFP)
	b = binary.AppendVarint(b, int64(last.Trajectory))
	b = binary.AppendVarint(b, int64(last.Offset))
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(len(e.addr)))
		b = append(b, e.addr...)
		b = binary.AppendUvarint(b, e.epoch)
		b = binary.AppendUvarint(b, e.sig)
	}
	return base64.RawURLEncoding.EncodeToString(b)
}

// decodeClusterCursor validates shape and ring identity: a cursor
// minted under a different node set or slot width must not resume —
// ownership moved, so pages would be wrong, not just stale.
func decodeClusterCursor(s string, wantFP uint64) (*clusterCursor, error) {
	bad := func() (*clusterCursor, error) {
		return nil, fmt.Errorf("%w: malformed cluster cursor", cinct.ErrBadCursor)
	}
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || len(raw) < 2 || raw[0] != clusterCursorVersion {
		return nil, fmt.Errorf("%w: not a cluster cursor", cinct.ErrBadCursor)
	}
	p := raw[1:]
	ringFP, n := binary.Uvarint(p)
	if n <= 0 {
		return bad()
	}
	p = p[n:]
	traj, n := binary.Varint(p)
	if n <= 0 {
		return bad()
	}
	p = p[n:]
	off, n := binary.Varint(p)
	if n <= 0 {
		return bad()
	}
	p = p[n:]
	count, n := binary.Uvarint(p)
	if n <= 0 || count > 1<<16 {
		return bad()
	}
	p = p[n:]
	cc := &clusterCursor{ringFP: ringFP,
		last: cinct.Hit{Match: cinct.Match{Trajectory: int(traj), Offset: int(off)}}}
	for i := uint64(0); i < count; i++ {
		alen, n := binary.Uvarint(p)
		if n <= 0 || uint64(len(p)-n) < alen {
			return bad()
		}
		addr := string(p[n : n+int(alen)])
		p = p[n+int(alen):]
		epoch, n := binary.Uvarint(p)
		if n <= 0 {
			return bad()
		}
		p = p[n:]
		sig, n := binary.Uvarint(p)
		if n <= 0 {
			return bad()
		}
		p = p[n:]
		cc.nodes = append(cc.nodes, nodeCursorEntry{addr: addr, epoch: epoch, sig: sig})
	}
	if len(p) != 0 {
		return bad()
	}
	if ringFP != wantFP {
		return nil, fmt.Errorf("%w: cluster membership or slot width changed since the cursor was issued", ErrStaleCursor)
	}
	return cc, nil
}

// owned-scope serving ------------------------------------------------

// ownedStream filters one node's full-corpus library stream down to
// the trajectories the routing ring assigns to this node, applying the
// request limit after the filter (the library runs unbounded, lazily,
// so filtered-out hits cost only their traversal). Its cursor is the
// node's own engine envelope positioned after the last owned hit.
type ownedStream struct {
	lr         *cinct.Results
	epoch, sig uint64
	owns       func(int) bool
	limit      int

	n    int
	pull func() (cinct.Hit, error, bool)
	stop func()
	done bool
}

func (s *ownedStream) All() iter.Seq2[cinct.Hit, error] {
	return func(yield func(cinct.Hit, error) bool) {
		if s.done {
			return
		}
		if s.pull == nil {
			s.pull, s.stop = iter.Pull2(s.lr.All())
		}
		for {
			h, herr, ok := s.pull()
			if !ok {
				s.done = true
				return
			}
			if herr != nil {
				yield(cinct.Hit{}, herr)
				return
			}
			if !s.owns(h.Trajectory) {
				continue
			}
			s.n++
			hitLimit := s.limit > 0 && s.n >= s.limit
			if hitLimit {
				s.done = true
			}
			if !yield(h, nil) {
				return
			}
			if hitLimit {
				return
			}
		}
	}
}

func (s *ownedStream) Cursor() string {
	return wrapCursor(s.epoch, s.sig, s.lr.Cursor())
}

func (s *ownedStream) Stats() cinct.QueryStats { return s.lr.Stats() }

func (s *ownedStream) close() {
	if s.stop != nil {
		s.stop()
		s.stop, s.pull = nil, nil
	}
}

// searchOwned runs the owned-scope path: the local index serves only
// ring-owned trajectories. It mirrors searchLocal's caching and
// admission, with the cache key prefixed by the ring fingerprint —
// "owned under this routing" and "everything" are different answers to
// the same query bytes.
func (e *Engine) searchOwned(ctx context.Context, name string, q cinct.Query) (*Results, error) {
	cl := e.cluster
	if cl == nil {
		return nil, fmt.Errorf("%w: owned-scope query on a non-clustered node", cinct.ErrBadQuery)
	}
	if q.Kind == cinct.CountOnly {
		// An "owned count" has no caller: counts never fan out (every
		// node holds the full corpus and can answer exactly).
		return nil, fmt.Errorf("%w: count queries cannot be owner-scoped", cinct.ErrBadQuery)
	}
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
		q.Cursor = inner
	}
	enc, err := q.MarshalBinary()
	if err != nil {
		return nil, err
	}
	if q.Interval != nil && !v.temporal {
		return nil, fmt.Errorf("%w: %q", ErrNotTemporal, v.name)
	}
	key := fmt.Sprintf("o|%x|", cl.Fingerprint()) + searchKey(v.name, v.gen, enc)
	start := time.Now()
	ident := encodeIdent(v.epoch, v.sig)
	e.metrics.queries.With(kindLabel(q.Kind)).Inc()
	if val, ok := e.cache.get(key); ok {
		e.metrics.cacheHits.Inc()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, nil)
		return &Results{q: q, epoch: v.epoch, sig: v.sig, ident: ident, page: val.(*page)}, nil
	}
	e.metrics.cacheMisses.Inc()
	if err := e.acquire(ctx, estimateCost(q)); err != nil {
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	// The library runs unbounded and lazy; the limit applies to owned
	// hits only, inside the filter.
	lq := q
	lq.Limit = 0
	lr, err := func() (lr *cinct.Results, err error) {
		defer recoverQuery(&err)
		return v.q.Search(ctx, lq)
	}()
	if err != nil {
		e.release()
		e.recordQuery(v.name, q, start, cinct.QueryStats{}, err)
		return nil, err
	}
	src := &ownedStream{lr: lr, epoch: v.epoch, sig: v.sig, owns: cl.Owns, limit: q.Limit}
	return &Results{q: q, epoch: v.epoch, sig: v.sig, ident: ident, live: src, e: e,
		key: key, held: true, name: v.name, start: start, acc: make([]cinct.Hit, 0, 16)}, nil
}

// scatter-gather -----------------------------------------------------

// clusterPageSize is the per-peer page size of a scatter-gather leg:
// large enough to amortize the HTTP round trip, small enough that a
// limited query does not drag whole result sets across the wire.
const clusterPageSize = 1024

func remotePageLimit(queryLimit int) int {
	if queryLimit > 0 && queryLimit < clusterPageSize {
		return queryLimit
	}
	return clusterPageSize
}

// mergeSrc is one node's hit stream inside the coordinator's k-way
// merge: a one-hit lookahead (head/ok) over a pull function, plus the
// identity needed to mint this node's cluster-cursor entry.
type mergeSrc struct {
	addr string
	// ident reports the node's current (epoch, sig) — read at
	// cursor-minting time, since a remote node's identity is learned
	// (and refreshed) from its page summaries.
	ident     func() (epoch, sig uint64)
	head      cinct.Hit
	ok        bool
	exhausted bool
	next      func() (cinct.Hit, bool, error)
	closefn   func()
}

func (m *mergeSrc) advance() error {
	h, ok, err := m.next()
	if err != nil {
		return err
	}
	if !ok {
		m.exhausted = true
		return nil
	}
	m.head, m.ok = h, true
	return nil
}

// clusterStream merges per-node owned streams back into the canonical
// (Trajectory, Offset) order — the same order the single-node engine
// yields, which is what makes distributed answers byte-identical.
type clusterStream struct {
	srcs   []*mergeSrc
	ringFP uint64
	limit  int

	n       int
	last    cinct.Hit
	hasLast bool
	done    bool
	closed  bool
}

func hitLess(a, b cinct.Hit) bool {
	if a.Trajectory != b.Trajectory {
		return a.Trajectory < b.Trajectory
	}
	return a.Offset < b.Offset
}

func (s *clusterStream) All() iter.Seq2[cinct.Hit, error] {
	return func(yield func(cinct.Hit, error) bool) {
		if s.done || s.closed {
			return
		}
		for {
			for _, src := range s.srcs {
				if !src.ok && !src.exhausted {
					if err := src.advance(); err != nil {
						yield(cinct.Hit{}, err)
						return
					}
				}
			}
			best := -1
			for i, src := range s.srcs {
				if src.ok && (best < 0 || hitLess(src.head, s.srcs[best].head)) {
					best = i
				}
			}
			if best < 0 {
				s.done = true
				return
			}
			h := s.srcs[best].head
			s.srcs[best].ok = false
			s.n++
			s.last, s.hasLast = h, true
			atLimit := s.limit > 0 && s.n >= s.limit
			if atLimit {
				s.done = true
			}
			if !yield(h, nil) {
				return
			}
			if atLimit {
				return
			}
		}
	}
}

// Cursor mints the cluster resume token: the global position once,
// plus one identity entry per node that may still hold hits past it.
// A fully-merged-out node is omitted — that is how a resume knows not
// to contact it — and when every node is merged out the stream is
// exhausted and the cursor is empty.
func (s *clusterStream) Cursor() string {
	if !s.hasLast {
		return ""
	}
	var entries []nodeCursorEntry
	for _, src := range s.srcs {
		if src.exhausted && !src.ok {
			continue
		}
		epoch, sig := src.ident()
		entries = append(entries, nodeCursorEntry{addr: src.addr, epoch: epoch, sig: sig})
	}
	if len(entries) == 0 {
		return ""
	}
	return encodeClusterCursor(s.ringFP, s.last, entries)
}

// Stats is empty for the coordinator view: the traversal cost was paid
// (and recorded) by each node's own scoped query.
func (s *clusterStream) Stats() cinct.QueryStats { return cinct.QueryStats{} }

func (s *clusterStream) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, src := range s.srcs {
		if src.closefn != nil {
			src.closefn()
		}
	}
}

// remoteSrc pages one peer's owned stream through the NDJSON query
// endpoint, recording the peer's index identity from each summary.
type remoteSrc struct {
	ctx        context.Context
	e          *Engine
	peer       string
	index      string
	base       wire.Request
	buf        []cinct.Hit
	pos        int
	nextCursor string
	pageDone   bool // nextCursor == "" after the latest page
	epoch, sig uint64
}

func (r *remoteSrc) absorb(p *wire.Page) error {
	r.buf, r.pos = p.Hits, 0
	r.nextCursor = p.Cursor
	r.pageDone = p.Cursor == ""
	if p.Ident != "" {
		epoch, sig, err := decodeIdent(p.Ident)
		if err != nil {
			return fmt.Errorf("engine: peer %s sent %v", r.peer, err)
		}
		r.epoch, r.sig = epoch, sig
	}
	return nil
}

func (r *remoteSrc) next() (cinct.Hit, bool, error) {
	for {
		if r.pos < len(r.buf) {
			h := r.buf[r.pos]
			r.pos++
			return h, true, nil
		}
		if r.pageDone {
			return cinct.Hit{}, false, nil
		}
		req := r.base
		req.Cursor = r.nextCursor
		p, err := r.e.cluster.FetchPage(r.ctx, r.peer, r.index, req)
		if err != nil {
			return cinct.Hit{}, false, peerFetchError(r.peer, err)
		}
		if err := r.absorb(p); err != nil {
			return cinct.Hit{}, false, err
		}
	}
}

// peerFetchError types a failed peer fetch: a 410 means the peer's
// index changed under the cursor (stale, not partial); anything else
// after retry means the peer is unreachable for this query's purposes.
func peerFetchError(peer string, err error) error {
	var he *cluster.HTTPError
	if errors.As(err, &he) && he.Status == 410 {
		return fmt.Errorf("%w: peer %s: %s", ErrStaleCursor, peer, he.Msg)
	}
	return &PartialError{Peers: []string{peer}}
}

// searchCluster is the coordinator path: the local index serves its
// owned trajectories in-process while every peer streams its owned
// hits through the query endpoint, all feeding one canonical merge.
// The first page of every remote leg is fetched up front, in parallel,
// so an unreachable peer fails the query typed (*PartialError) before
// any hit is streamed.
func (e *Engine) searchCluster(ctx context.Context, name string, q cinct.Query) (*Results, error) {
	cl := e.cluster
	var cc *clusterCursor
	if q.Cursor != "" {
		var err error
		cc, err = decodeClusterCursor(q.Cursor, cl.Fingerprint())
		if err != nil {
			return nil, err
		}
	}
	e.metrics.clusterQueries.Inc()

	// Local leg first: it validates the query (bad descriptors, missing
	// timestamps, overload) before any network fan-out.
	var inner *Results
	includeLocal := true
	lq := q
	lq.Limit = 0
	lq.Cursor = ""
	if cc != nil {
		ent, ok := cc.entry(cl.Self())
		if !ok {
			includeLocal = false
		} else {
			lq.Cursor = wrapCursor(ent.epoch, ent.sig, q.CursorAfter(cc.last))
		}
	}
	if includeLocal {
		var err error
		inner, err = e.searchOwned(ctx, name, lq)
		if err != nil {
			return nil, err
		}
	}

	// Remote legs: first pages in parallel.
	base := wire.FromQuery(q)
	base.Cursor = ""
	base.Limit = remotePageLimit(q.Limit)
	type leg struct {
		peer string
		req  wire.Request
		page *wire.Page
		err  error
	}
	var legs []*leg
	for _, peer := range cl.Peers() {
		req := base
		if cc != nil {
			ent, ok := cc.entry(peer)
			if !ok {
				continue // exhausted before the cursor was minted
			}
			req.Cursor = wrapCursor(ent.epoch, ent.sig, q.CursorAfter(cc.last))
		}
		legs = append(legs, &leg{peer: peer, req: req})
	}
	var wg sync.WaitGroup
	for _, l := range legs {
		wg.Add(1)
		go func(l *leg) {
			defer wg.Done()
			l.page, l.err = cl.FetchPage(ctx, l.peer, name, l.req)
		}(l)
	}
	wg.Wait()

	var unreachable []string
	var fatal error
	for _, l := range legs {
		if l.err == nil {
			continue
		}
		err := peerFetchError(l.peer, l.err)
		var pe *PartialError
		switch {
		case errors.As(err, &pe):
			unreachable = append(unreachable, pe.Peers...)
		case fatal == nil:
			// Stale cursors and configuration errors (ring mismatch,
			// scoped query refused) surface directly: a retry with the
			// same inputs cannot succeed.
			fatal = err
		}
	}
	if fatal != nil || len(unreachable) > 0 {
		if inner != nil {
			inner.Close()
		}
		if fatal != nil {
			return nil, fatal
		}
		e.metrics.clusterPartial.Inc()
		return nil, &PartialError{Peers: unreachable}
	}

	// Assemble the merge.
	cs := &clusterStream{ringFP: cl.Fingerprint(), limit: q.Limit}
	if inner != nil {
		pull, stop := iter.Pull2(inner.All())
		cs.srcs = append(cs.srcs, &mergeSrc{
			addr:  cl.Self(),
			ident: func() (uint64, uint64) { return inner.epoch, inner.sig },
			next: func() (cinct.Hit, bool, error) {
				h, herr, ok := pull()
				if !ok {
					return cinct.Hit{}, false, nil
				}
				if herr != nil {
					return cinct.Hit{}, false, herr
				}
				return h, true, nil
			},
			closefn: func() { stop(); inner.Close() },
		})
	}
	for _, l := range legs {
		rs := &remoteSrc{ctx: ctx, e: e, peer: l.peer, index: name, base: base}
		if err := rs.absorb(l.page); err != nil {
			cs.close()
			return nil, err
		}
		cs.srcs = append(cs.srcs, &mergeSrc{
			addr:  l.peer,
			ident: func() (uint64, uint64) { return rs.epoch, rs.sig },
			next:  rs.next,
		})
	}

	// The outer Results is a pure merge view: the inner scoped queries
	// did (and recorded) the real work, so it neither re-records
	// metrics nor re-enters the cache.
	return &Results{q: q, live: cs, e: e, name: name, start: time.Now(),
		recorded: true, tooBig: true}, nil
}
