package engine

import (
	"context"
	"time"
)

// acquire takes a worker slot, honoring context cancellation while
// waiting: a saturated pool queues the query until a slot frees or its
// context expires. Shedding under overload is the server's concurrency
// gate's job, not the pool's. Time spent waiting is observed into the
// pool-wait histogram.
func (e *Engine) acquire(ctx context.Context) error {
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
// the pool-occupancy gauge pair.
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
