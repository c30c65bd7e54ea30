package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinct"
)

// subEngine serves one temporal index "t" and one spatial index "s",
// both registered in-memory, ready for Append.
func subEngine(t *testing.T) *Engine {
	t.Helper()
	trajs := [][]uint32{{1, 2, 3}, {4, 5, 6}}
	times := [][]int64{{10, 20, 30}, {40, 50, 60}}
	tix, err := cinct.BuildTemporal(trajs, times, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := cinct.Build(trajs, nil)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{SealThreshold: -1})
	t.Cleanup(e.Shutdown)
	t.Cleanup(e.CloseAll)
	e.Register("t", tix.Index)
	e.Register("s", ix)
	return e
}

// recv pulls one notification or fails after a timeout.
func recv(t *testing.T, s *Subscription) Notification {
	t.Helper()
	select {
	case n, ok := <-s.C():
		if !ok {
			t.Fatal("subscription channel closed before notification")
		}
		return n
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for notification")
		panic("unreachable")
	}
}

// assertClosed requires the stream to terminate (without further
// notifications pending consumption being an error).
func assertClosed(t *testing.T, s *Subscription) {
	t.Helper()
	deadline := time.After(2 * time.Second)
	for {
		select {
		case _, ok := <-s.C():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscription channel not closed")
		}
	}
}

func TestSubscribeLifecycle(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	s, err := e.Subscribe("t", Predicate{Path: []uint32{8, 9}}, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID() == "" || s.Index() != "t" {
		t.Fatalf("subscription identity: %q %q", s.ID(), s.Index())
	}
	if got, err := e.GetSubscription("t", s.ID()); err != nil || got != s {
		t.Fatalf("GetSubscription: %v %v", got, err)
	}

	// A non-matching append stays silent; a matching one notifies with
	// the same locator a Search would produce.
	if _, err := e.Append(ctx, "t", [][]uint32{{1, 2, 3}}, [][]int64{{70, 80, 90}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "t", [][]uint32{{7, 8, 9, 1}}, [][]int64{{100, 110, 120, 130}}); err != nil {
		t.Fatal(err)
	}
	n := recv(t, s)
	if n.Subscription != s.ID() || n.Index != "t" || n.Trajectory != 3 || n.Offset != 1 || n.EnteredAt != 110 {
		t.Fatalf("notification %+v", n)
	}
	select {
	case extra := <-s.C():
		t.Fatalf("unexpected extra notification %+v", extra)
	default:
	}

	// Cancel closes the stream; a second cancel is ErrNotFound.
	if err := e.Unsubscribe("t", s.ID()); err != nil {
		t.Fatal(err)
	}
	assertClosed(t, s)
	if err := e.Unsubscribe("t", s.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double cancel: %v", err)
	}
	if _, err := e.GetSubscription("t", s.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetSubscription after cancel: %v", err)
	}

	// Cancelled subscriptions no longer receive.
	if _, err := e.Append(ctx, "t", [][]uint32{{8, 9}}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped after cancel: %d", s.Dropped())
	}
}

func TestSubscribeIntervalPredicate(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	s, err := e.Subscribe("t", Predicate{
		Path:     []uint32{5, 6},
		Interval: &cinct.Interval{From: 100, To: 200},
	}, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Entry time 50 is outside [100, 200]; entry time 150 is inside.
	if _, err := e.Append(ctx, "t", [][]uint32{{5, 6}}, [][]int64{{50, 60}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "t", [][]uint32{{5, 6}}, [][]int64{{150, 160}}); err != nil {
		t.Fatal(err)
	}
	n := recv(t, s)
	if n.Trajectory != 3 || n.EnteredAt != 150 {
		t.Fatalf("notification %+v, want trajectory 3 entered at 150", n)
	}
}

func TestSubscribeValidation(t *testing.T) {
	e := subEngine(t)
	if _, err := e.Subscribe("nosuch", Predicate{Path: []uint32{1}}, SubscribeOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown index: %v", err)
	}
	if _, err := e.Subscribe("t", Predicate{}, SubscribeOptions{}); !errors.Is(err, ErrBadSubscription) {
		t.Fatalf("empty path: %v", err)
	}
	iv := &cinct.Interval{From: 1, To: 2}
	if _, err := e.Subscribe("s", Predicate{Path: []uint32{1}, Interval: iv}, SubscribeOptions{}); !errors.Is(err, ErrNotTemporal) {
		t.Fatalf("interval on spatial index: %v", err)
	}
	// A path-only subscription on a spatial index is fine.
	s, err := e.Subscribe("s", Predicate{Path: []uint32{2, 3}}, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(context.Background(), "s", [][]uint32{{1, 2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	if n := recv(t, s); n.Trajectory != 2 || n.Offset != 1 {
		t.Fatalf("spatial notification %+v", n)
	}
}

func TestSubscribeExpiry(t *testing.T) {
	e := subEngine(t)
	s, err := e.Subscribe("t", Predicate{Path: []uint32{1}}, SubscribeOptions{TTL: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	assertClosed(t, s)
	if _, err := e.GetSubscription("t", s.ID()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired subscription still registered: %v", err)
	}
}

func TestSubscribeSlowConsumerDrops(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	s, err := e.Subscribe("t", Predicate{Path: []uint32{9}}, SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Four matching rows against a buffer of one: the first is
	// delivered, three drop and count.
	rows := [][]uint32{{9, 1}, {9, 2}, {9, 3}, {9, 4}}
	cols := [][]int64{{1, 2}, {3, 4}, {5, 6}, {7, 8}}
	if _, err := e.Append(ctx, "t", rows, cols); err != nil {
		t.Fatal(err)
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	first := recv(t, s)
	if first.Trajectory != 2 || first.Dropped != 0 {
		t.Fatalf("first notification %+v", first)
	}
	// The next delivery carries the loss count in-band.
	if _, err := e.Append(ctx, "t", [][]uint32{{9, 5}}, [][]int64{{9, 10}}); err != nil {
		t.Fatal(err)
	}
	n := recv(t, s)
	if n.Trajectory != 6 || n.Dropped != 3 {
		t.Fatalf("post-drop notification %+v, want trajectory 6 with dropped=3", n)
	}
}

// TestSubscribeFinalDropReport pins the close-time accounting: when
// the very last notification before cancel was dropped, the consumer
// must still learn of the loss through the final in-band drop-report
// (Trajectory/Offset -1) rather than seeing a clean close.
func TestSubscribeFinalDropReport(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	s, err := e.Subscribe("t", Predicate{Path: []uint32{9}}, SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First match fills the buffer; second drops. No further match will
	// ever arrive, so without the close-time report the drop would be
	// invisible.
	if _, err := e.Append(ctx, "t", [][]uint32{{9, 1}}, [][]int64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "t", [][]uint32{{9, 2}}, [][]int64{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	first := recv(t, s)
	if first.Trajectory != 2 || first.Dropped != 0 {
		t.Fatalf("first notification %+v", first)
	}
	if err := e.Unsubscribe("t", s.ID()); err != nil {
		t.Fatal(err)
	}
	rep := recv(t, s)
	if rep.Trajectory != -1 || rep.Offset != -1 || rep.Dropped != 1 {
		t.Fatalf("final drop-report %+v, want trajectory/offset -1 with dropped=1", rep)
	}
	assertClosed(t, s)
}

// TestSubscribeFinalDropReportEvicts covers the full-buffer close: the
// report evicts the oldest buffered notification rather than being
// silently discarded.
func TestSubscribeFinalDropReportEvicts(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	s, err := e.Subscribe("t", Predicate{Path: []uint32{9}}, SubscribeOptions{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "t", [][]uint32{{9, 1}, {9, 2}}, [][]int64{{1, 2}, {3, 4}}); err != nil {
		t.Fatal(err)
	}
	// Buffer holds trajectory 2; trajectory 3's notification dropped.
	// Close with the consumer never reading: the report must displace
	// the buffered notification.
	if err := e.Unsubscribe("t", s.ID()); err != nil {
		t.Fatal(err)
	}
	rep := recv(t, s)
	if rep.Trajectory != -1 || rep.Offset != -1 || rep.Dropped != 1 {
		t.Fatalf("final drop-report %+v, want trajectory/offset -1 with dropped=1", rep)
	}
	assertClosed(t, s)

	// A subscription with no unreported drops closes cleanly — no
	// spurious report.
	s2, err := e.Subscribe("t", Predicate{Path: []uint32{9}}, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Append(ctx, "t", [][]uint32{{9, 3}}, [][]int64{{5, 6}}); err != nil {
		t.Fatal(err)
	}
	if n := recv(t, s2); n.Trajectory != 4 {
		t.Fatalf("notification %+v", n)
	}
	if err := e.Unsubscribe("t", s2.ID()); err != nil {
		t.Fatal(err)
	}
	if n, ok := <-s2.C(); ok {
		t.Fatalf("unexpected notification after clean close: %+v", n)
	}
}

// TestSubscribeExpiryCancelRace drives the TTL timer against
// concurrent cancellation: whichever side wins, the subscription is
// removed exactly once — the expiry metric and successful Unsubscribe
// calls together account for every subscription, with no double count
// and no double close.
func TestSubscribeExpiryCancelRace(t *testing.T) {
	e := subEngine(t)
	const n = 64

	base := e.metrics.subsExpired.Value()
	var cancelled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		s, err := e.Subscribe("t", Predicate{Path: []uint32{1}}, SubscribeOptions{TTL: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if err := e.Unsubscribe("t", id); err == nil {
				cancelled.Add(1)
			} else if !errors.Is(err, ErrNotFound) {
				t.Errorf("unsubscribe: %v", err)
			}
		}(s.ID())
		go func() {
			for range s.C() {
			}
		}()
	}
	wg.Wait()
	// Let every timer that won its race finish firing.
	deadline := time.Now().Add(2 * time.Second)
	for e.subs.count() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if cnt := e.subs.count(); cnt != 0 {
		t.Fatalf("%d subscriptions leaked", cnt)
	}
	// Expiries keep racing Unsubscribe after it loses, so poll until
	// the account settles.
	for time.Now().Before(deadline) {
		if e.metrics.subsExpired.Value()-base+cancelled.Load() == n {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	expired := e.metrics.subsExpired.Value() - base
	if expired+cancelled.Load() != n {
		t.Fatalf("expired %d + cancelled %d != %d subscriptions", expired, cancelled.Load(), n)
	}
}

// TestSubscribeExpiryCloseIndexRace races index close against firing
// TTL timers; the loser must neither double-close nor double-count.
func TestSubscribeExpiryCloseIndexRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		e := subEngine(t)
		base := e.metrics.subsExpired.Value()
		const n = 16
		for i := 0; i < n; i++ {
			s, err := e.Subscribe("t", Predicate{Path: []uint32{1}}, SubscribeOptions{TTL: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				for range s.C() {
				}
			}()
		}
		time.Sleep(time.Millisecond) // let some timers fire mid-close
		if err := e.Close("t"); err != nil {
			t.Fatal(err)
		}
		if cnt := e.subs.count(); cnt != 0 {
			t.Fatalf("round %d: %d subscriptions leaked", round, cnt)
		}
		if expired := e.metrics.subsExpired.Value() - base; expired > n {
			t.Fatalf("round %d: %d expiries counted for %d subscriptions", round, expired, n)
		}
	}
}

func TestSubscribeClosedWithIndex(t *testing.T) {
	e := subEngine(t)
	s, err := e.Subscribe("t", Predicate{Path: []uint32{1}}, SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close("t"); err != nil {
		t.Fatal(err)
	}
	assertClosed(t, s)
	if _, err := e.Subscribe("t", Predicate{Path: []uint32{1}}, SubscribeOptions{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("subscribe after close: %v", err)
	}
}

// TestSubscribeChurn is the -race soak: appends, seals, subscribes,
// cancels and consumers all churning the same index concurrently.
func TestSubscribeChurn(t *testing.T) {
	e := subEngine(t)
	ctx := context.Background()

	const (
		appenders = 3
		churners  = 3
		rounds    = 120
	)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				row := []uint32{uint32(rng.Intn(8) + 1), uint32(rng.Intn(8) + 1)}
				col := []int64{int64(i), int64(i + 1)}
				if _, err := e.Append(ctx, "t", [][]uint32{row}, [][]int64{col}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				if i%40 == 0 {
					if _, err := e.Seal(ctx, "t"); err != nil {
						t.Errorf("seal: %v", err)
						return
					}
				}
			}
		}(int64(a))
	}
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < rounds; i++ {
				s, err := e.Subscribe("t", Predicate{Path: []uint32{uint32(rng.Intn(8) + 1)}}, SubscribeOptions{Buffer: 2})
				if err != nil {
					t.Errorf("subscribe: %v", err)
					return
				}
				// Consume whatever arrives while the subscription lives.
				done := make(chan struct{})
				go func() {
					for range s.C() {
					}
					close(done)
				}()
				if rng.Intn(4) > 0 {
					if err := e.Unsubscribe("t", s.ID()); err != nil {
						t.Errorf("unsubscribe: %v", err)
					}
				} else {
					e.subs.remove("t", s.ID())
				}
				<-done
			}
		}(int64(c))
	}
	wg.Wait()
	if n := e.subs.count(); n != 0 {
		t.Fatalf("%d subscriptions leaked", n)
	}
}
