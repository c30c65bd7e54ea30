package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// ErrRateLimited reports a request rejected by the per-client token
// bucket; the status mapper turns it into 429 with a Retry-After hint,
// and the Client surfaces it as a typed error so callers can back off.
var ErrRateLimited = errors.New("server: rate limited")

// ErrOverloaded reports a request shed by the concurrency gate
// (Config.MaxInflight): every slot was busy, so the request was
// rejected at once instead of queueing. The status mapper turns it into
// 503 with a Retry-After hint, and the Client maps a 503 back onto it.
var ErrOverloaded = errors.New("server: overloaded")

// rateLimitError carries the time until the client's bucket refills
// enough for one request, so the 429 response can say when to retry.
type rateLimitError struct {
	retryAfter time.Duration
}

func (e *rateLimitError) Error() string {
	return fmt.Sprintf("server: rate limited, retry in %s", e.retryAfter.Round(time.Millisecond))
}

func (e *rateLimitError) Is(target error) bool { return target == ErrRateLimited }

// maxBuckets bounds the limiter's client table; when it fills, buckets
// idle long enough to have fully refilled are evicted (forgetting a
// full bucket changes nothing a client can observe).
const maxBuckets = 4096

// rateLimiter is a per-client token bucket: rate tokens/second with a
// burst-sized bucket per key. It is deliberately lazy — a client's
// bucket refills arithmetically from its last-touched timestamp, so
// there is no background goroutine.
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: float64(burst), buckets: map[string]*bucket{}}
}

// allow spends one token from key's bucket. When the bucket is empty
// it reports how long until one token accrues.
func (l *rateLimiter) allow(key string, now time.Time) (bool, time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= maxBuckets {
			l.evictLocked(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
		return false, wait
	}
	b.tokens--
	return true, 0
}

// evictLocked drops buckets idle long enough to have refilled to full
// burst — and, if every client is active, the stalest ones anyway, so
// the table stays bounded under key churn (spoofed client IDs).
func (l *rateLimiter) evictLocked(now time.Time) {
	idle := time.Duration(l.burst / l.rate * float64(time.Second))
	var stalest string
	var stalestAt time.Time
	for k, b := range l.buckets {
		if now.Sub(b.last) >= idle {
			delete(l.buckets, k)
			continue
		}
		if stalest == "" || b.last.Before(stalestAt) {
			stalest, stalestAt = k, b.last
		}
	}
	if len(l.buckets) >= maxBuckets && stalest != "" {
		delete(l.buckets, stalest)
	}
}

// clientKey identifies the caller for rate limiting: the X-Client-ID
// header when present (so pooled proxies can split their tenants),
// otherwise the remote IP.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}
