package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cinct"
)

// Standing queries: a client registers a path+interval predicate
// against an index and the engine's append path tests every freshly
// landed trajectory against it, pushing matches to the subscriber.
// Evaluation reuses the delta's brute-force scan machinery
// (cinct.MatchRow), so a notification fires exactly when a Search for
// the same predicate would have found the new row.
//
// Delivery is decoupled from the append path by a bounded per-
// subscriber buffer: the appender never blocks on a slow consumer —
// when the buffer is full the notification is dropped and counted
// (observable per subscription and in aggregate), the standard
// pub/sub backpressure contract for at-most-once push feeds.

// ErrBadSubscription reports a subscription request rejected before
// registration: an empty path, or an interval predicate against a
// spatial index.
var ErrBadSubscription = errors.New("engine: bad subscription")

// Predicate is what a standing query watches for: a path (required),
// optionally constrained to entry times within a closed interval.
type Predicate struct {
	Path     []uint32
	Interval *cinct.Interval
}

// SubscribeOptions tunes one subscription. Zero values pick defaults.
type SubscribeOptions struct {
	// TTL bounds the subscription's lifetime; it is removed (and its
	// channel closed) when the TTL elapses. 0 means 15 minutes, capped
	// at 24 hours.
	TTL time.Duration
	// Buffer is the per-subscriber notification buffer; when it is
	// full, further notifications are dropped and counted rather than
	// blocking the append path. 0 means 64, capped at 4096.
	Buffer int
}

const (
	defaultSubTTL    = 15 * time.Minute
	maxSubTTL        = 24 * time.Hour
	defaultSubBuffer = 64
	maxSubBuffer     = 4096
)

// Notification is one standing-query match: a freshly appended
// trajectory satisfied the subscription's predicate. A final
// drop-report notification — Trajectory and Offset both -1 — is
// delivered when the stream closes with drops the consumer has not
// seen in-band yet, so losses are observable even when no further
// match ever arrives.
type Notification struct {
	Subscription string `json:"subscription"`
	Index        string `json:"index"`
	// Trajectory/Offset locate the first matching occurrence in the
	// new row, exactly as a Search hit would; both are -1 on the final
	// drop-report notification.
	Trajectory int `json:"trajectory"`
	Offset     int `json:"offset"`
	// EnteredAt is the entry time of the match's first edge (timed
	// rows only).
	EnteredAt int64 `json:"enteredAt,omitempty"`
	// Dropped is the subscription's cumulative dropped-notification
	// count at send time, so a consumer can detect losses in-band.
	Dropped uint64 `json:"dropped,omitempty"`
}

// Subscription is one registered standing query. Consumers receive
// from C until it is closed (cancel, expiry, index close or engine
// shutdown).
type Subscription struct {
	id      string
	index   string
	pred    Predicate
	expires time.Time
	ch      chan Notification
	timer   *time.Timer

	// mu orders push against close: a send on a closed channel would
	// panic, so both the send and the close happen under mu.
	mu     sync.Mutex
	closed bool
	// reported is the drop count the consumer has seen in-band (the
	// Dropped field of the last successfully buffered notification).
	// close compares it against dropped to decide whether a final
	// drop-report notification is owed. Guarded by mu.
	reported uint64
	dropped  atomic.Uint64
}

// ID returns the subscription's registry key.
func (s *Subscription) ID() string { return s.id }

// Index returns the index the subscription watches.
func (s *Subscription) Index() string { return s.index }

// Predicate returns the registered predicate.
func (s *Subscription) Predicate() Predicate { return s.pred }

// ExpiresAt returns the subscription's expiry deadline.
func (s *Subscription) ExpiresAt() time.Time { return s.expires }

// Dropped returns the number of notifications dropped because the
// consumer was too slow.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// C is the notification stream; it is closed when the subscription
// ends for any reason.
func (s *Subscription) C() <-chan Notification { return s.ch }

// push delivers one notification without ever blocking: delivered
// reports a successful buffered send, droppedNow that the consumer's
// buffer was full (counted). A closed subscription reports neither.
func (s *Subscription) push(n Notification) (delivered, droppedNow bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, false
	}
	n.Dropped = s.dropped.Load()
	select {
	case s.ch <- n:
		// Only a *successful* send makes the snapshot visible; a drop
		// whose count was snapshotted into a notification that never
		// left stays unreported until close settles the account.
		s.reported = n.Dropped
		return true, false
	default:
		s.dropped.Add(1)
		return false, true
	}
}

// close ends the stream exactly once. If notifications were dropped
// after the last count the consumer saw in-band, a final drop-report
// notification (Trajectory/Offset -1) is delivered first — evicting
// the oldest buffered notification if the buffer is still full — so a
// consumer whose very last notification was dropped still learns of
// the loss instead of seeing a clean close.
func (s *Subscription) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if d := s.dropped.Load(); d > s.reported {
		n := Notification{Subscription: s.id, Index: s.index, Trajectory: -1, Offset: -1, Dropped: d}
		select {
		case s.ch <- n:
			s.reported = d
		default:
			select {
			case <-s.ch:
			default:
			}
			select {
			case s.ch <- n:
				s.reported = d
			default:
			}
		}
	}
	s.closed = true
	close(s.ch)
}

// subRegistry holds every live subscription, keyed by index then
// subscription ID.
type subRegistry struct {
	mu      sync.RWMutex
	byIndex map[string]map[string]*Subscription
	seq     uint64
	closed  bool
}

func newSubRegistry() *subRegistry {
	return &subRegistry{byIndex: make(map[string]map[string]*Subscription)}
}

func (r *subRegistry) add(index string, pred Predicate, ttl time.Duration, buffer int, onExpire func(*Subscription)) (*Subscription, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("%w: engine shut down", ErrBadSubscription)
	}
	r.seq++
	s := &Subscription{
		id:      fmt.Sprintf("sub-%d", r.seq),
		index:   index,
		pred:    pred,
		expires: time.Now().Add(ttl),
		ch:      make(chan Notification, buffer),
	}
	m := r.byIndex[index]
	if m == nil {
		m = make(map[string]*Subscription)
		r.byIndex[index] = m
	}
	m[s.id] = s
	s.timer = time.AfterFunc(ttl, func() { onExpire(s) })
	return s, nil
}

// remove unregisters and closes the subscription; it reports whether
// this call was the one that removed it. A TTL timer that has already
// started firing when Stop is called simply loses the race: its
// onExpire finds the subscription gone (this function returns false
// for it), close is idempotent, and only the winning caller counts —
// no double-close, no metric double-count. The timer handle is
// captured under the registry lock so remove never races the add that
// published it.
func (r *subRegistry) remove(index, id string) bool {
	r.mu.Lock()
	s := r.byIndex[index][id]
	var t *time.Timer
	if s != nil {
		delete(r.byIndex[index], id)
		if len(r.byIndex[index]) == 0 {
			delete(r.byIndex, index)
		}
		t = s.timer
	}
	r.mu.Unlock()
	if s == nil {
		return false
	}
	if t != nil {
		t.Stop()
	}
	s.close()
	return true
}

func (r *subRegistry) get(index, id string) *Subscription {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byIndex[index][id]
}

// forIndex snapshots the index's subscriptions for lock-free iteration
// on the publish path.
func (r *subRegistry) forIndex(index string) []*Subscription {
	r.mu.RLock()
	defer r.mu.RUnlock()
	m := r.byIndex[index]
	if len(m) == 0 {
		return nil
	}
	out := make([]*Subscription, 0, len(m))
	for _, s := range m {
		out = append(out, s)
	}
	return out
}

func (r *subRegistry) count() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, m := range r.byIndex {
		n += len(m)
	}
	return n
}

// closeIndex ends every subscription watching index (the index was
// closed or the engine is shutting down).
func (r *subRegistry) closeIndex(index string) {
	r.mu.Lock()
	m := r.byIndex[index]
	delete(r.byIndex, index)
	timers := make([]*time.Timer, 0, len(m))
	for _, s := range m {
		timers = append(timers, s.timer)
	}
	r.mu.Unlock()
	for _, t := range timers {
		if t != nil {
			t.Stop()
		}
	}
	for _, s := range m {
		s.close()
	}
}

// closeAll ends every subscription and refuses new ones.
func (r *subRegistry) closeAll() {
	r.mu.Lock()
	all := r.byIndex
	r.byIndex = make(map[string]map[string]*Subscription)
	r.closed = true
	var timers []*time.Timer
	for _, m := range all {
		for _, s := range m {
			timers = append(timers, s.timer)
		}
	}
	r.mu.Unlock()
	for _, t := range timers {
		if t != nil {
			t.Stop()
		}
	}
	for _, m := range all {
		for _, s := range m {
			s.close()
		}
	}
}

// Subscribe registers a standing query against index name. The
// predicate must carry a non-empty path; an interval predicate
// requires a temporal index. The returned subscription streams
// matches over C until cancelled or expired.
func (e *Engine) Subscribe(name string, pred Predicate, opts SubscribeOptions) (*Subscription, error) {
	v, err := e.cat.view(name)
	if err != nil {
		return nil, err
	}
	if len(pred.Path) == 0 {
		return nil, fmt.Errorf("%w: empty path", ErrBadSubscription)
	}
	// No library call runs here to refuse the interval, so check it.
	if pred.Interval != nil && !v.w.Temporal() {
		return nil, fmt.Errorf("%w: %q", cinct.ErrNoTimestamps, name)
	}
	ttl := opts.TTL
	switch {
	case ttl <= 0:
		ttl = defaultSubTTL
	case ttl > maxSubTTL:
		ttl = maxSubTTL
	}
	buffer := opts.Buffer
	switch {
	case buffer <= 0:
		buffer = defaultSubBuffer
	case buffer > maxSubBuffer:
		buffer = maxSubBuffer
	}
	s, err := e.subs.add(name, pred, ttl, buffer, func(s *Subscription) {
		if e.subs.remove(s.index, s.id) {
			e.metrics.subsExpired.Inc()
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Unsubscribe cancels a subscription; the consumer's channel closes.
func (e *Engine) Unsubscribe(name, id string) error {
	if !e.subs.remove(name, id) {
		return fmt.Errorf("%w: subscription %q on %q", ErrNotFound, id, name)
	}
	return nil
}

// GetSubscription returns a live subscription by ID.
func (e *Engine) GetSubscription(name, id string) (*Subscription, error) {
	s := e.subs.get(name, id)
	if s == nil {
		return nil, fmt.Errorf("%w: subscription %q on %q", ErrNotFound, id, name)
	}
	return s, nil
}

// publishAppend tests every landed row against the index's registered
// predicates and pushes matches. appendBatch runs it on the appending
// goroutine right after the rows became visible to Search, so delivery
// never blocks: slow consumers drop and count.
func (e *Engine) publishAppend(index string, first int, trajs [][]uint32, times [][]int64) {
	subs := e.subs.forIndex(index)
	if len(subs) == 0 {
		return
	}
	for _, s := range subs {
		for k, row := range trajs {
			var col []int64
			if times != nil {
				col = times[k]
			}
			off, at, ok := cinct.MatchRow(row, col, s.pred.Path, s.pred.Interval)
			if !ok {
				continue
			}
			delivered, droppedNow := s.push(Notification{
				Subscription: s.id,
				Index:        index,
				Trajectory:   first + k,
				Offset:       off,
				EnteredAt:    at,
			})
			switch {
			case delivered:
				e.metrics.notifSent.Inc()
			case droppedNow:
				e.metrics.notifDropped.Inc()
			}
		}
	}
}
