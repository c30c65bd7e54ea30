package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cinct"
)

// ErrOverloaded reports a query shed by admission control: the worker
// pool was saturated and the query's estimated cost crossed the
// engine's shedding threshold, so it was rejected immediately instead
// of queueing behind work it would only make slower. Callers should
// back off and retry; the HTTP layer maps this to 503 with a
// Retry-After hint.
var ErrOverloaded = errors.New("engine: overloaded")

// costUnbounded is the estimated cost of a query whose locate work is
// not bounded by its descriptor — an unlimited Occurrences or
// Trajectories listing, or any interval query, all of which must
// enumerate the full suffix range. Any positive ShedCost sheds these
// first.
const costUnbounded = int64(1) << 62

// estimateCost prices a query before execution, in the same currency
// QueryStats.Cost reports after it: decode-side steps. The estimate is
// deliberately coarse — its only consumer is admission control, which
// needs to separate O(|path|) counts and limit-bounded streams from
// full-range scans, not to predict latency.
func estimateCost(q cinct.Query) int64 {
	switch {
	case q.Kind == cinct.CountOnly && q.Interval == nil:
		// Pure backward search: one wavelet rank per path symbol.
		return int64(len(q.Path))
	case q.Limit > 0 && q.Interval == nil:
		// Bounded stream: Search locates shards in ID order only until
		// their occurrence counts cover Limit, so the walk is one
		// SA-sample LF walk per occurrence of the shards holding the
		// page — Limit of them at the least, more when the last shard
		// needed is wide. Priced here at its lower bound, Limit walks.
		return int64(q.Limit) * 64
	}
	return costUnbounded
}

// acquire takes a worker slot, honoring context cancellation while
// waiting. When the pool is saturated and shedding is enabled
// (Options.ShedCost > 0), a query whose estimated cost reaches the
// threshold fails fast with ErrOverloaded instead of joining the
// queue — under overload the expensive scans are exactly the ones that
// turn a full pool into an unbounded backlog. Time spent waiting by
// admitted queries is observed into the pool-wait histogram.
func (e *Engine) acquire(ctx context.Context, cost int64) error {
	if err := ctx.Err(); err != nil {
		// Deterministic failure for already-expired contexts (select
		// picks randomly among ready cases).
		return err
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	default:
	}
	if e.shedCost > 0 && cost >= e.shedCost {
		e.metrics.shed.Inc()
		return fmt.Errorf("%w: %d workers busy and query cost estimate %d >= shed threshold %d",
			ErrOverloaded, cap(e.sem), cost, e.shedCost)
	}
	t0 := time.Now()
	select {
	case e.sem <- struct{}{}:
		e.metrics.poolWait.Observe(time.Since(t0).Seconds())
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (e *Engine) release() { <-e.sem }

// PoolStats reports the worker pool's current occupancy and capacity —
// the admission gate's gauge pair.
func (e *Engine) PoolStats() (inflight, capacity int) {
	return len(e.sem), cap(e.sem)
}

// WALStats aggregates write-ahead-log footprint and fsync counts
// across every catalog entry that carries a log.
func (e *Engine) WALStats() (segments int, bytes int64, fsyncs int64) {
	for _, name := range e.cat.names() {
		en, err := e.cat.get(name)
		if err != nil {
			continue
		}
		en.mu.RLock()
		wl := en.wal
		en.mu.RUnlock()
		if wl == nil {
			continue
		}
		s, b := wl.Stats()
		segments += s
		bytes += b
		fsyncs += wl.Fsyncs()
	}
	return segments, bytes, fsyncs
}
