package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cinct/internal/engine"
	"cinct/internal/metrics"
)

// Middleware wraps an APIFunc with one transport concern. The server
// composes a fixed chain of these around every route — the moby
// router-middleware shape — so each concern (logging, metrics, rate
// limiting, admission, timeouts) is an isolated, testable layer
// instead of a clause in one monolithic wrapper.
type Middleware func(APIFunc) APIFunc

// chain applies mws to h, first element outermost: chain(h, a, b)
// runs a → b → h.
func chain(h APIFunc, mws ...Middleware) APIFunc {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// reqIDKey carries the request's sequence number through the context.
type reqIDKey struct{}

// RequestID returns the request's server-assigned sequence number, or
// 0 outside a server-handled request.
func RequestID(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// requestID tags each request with a monotonic ID and, when a logger
// is configured, writes one access-log line per request carrying the
// ID, outcome status and wall time — the line failures correlate with.
func (s *Server) requestID() Middleware {
	return func(next APIFunc) APIFunc {
		return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
			id := s.reqSeq.Add(1)
			ctx = context.WithValue(ctx, reqIDKey{}, id)
			start := time.Now()
			err := next(ctx, w, r)
			if s.cfg.Logger != nil {
				status := http.StatusOK
				if err != nil {
					status = httpStatus(err)
				}
				s.cfg.Logger.Printf("req#%d %s %s %d %s", id, r.Method, r.URL.Path, status, time.Since(start).Round(time.Microsecond))
			}
			return err
		}
	}
}

// serverMetrics is the HTTP layer's instrument set, registered into
// the engine's registry so one /metrics scrape covers both layers.
type serverMetrics struct {
	requests    *metrics.CounterVec // by status code
	ok          *metrics.Counter    // requests' code="200" child, resolved once
	seconds     *metrics.Histogram
	inflight    *metrics.Gauge
	rateLimited *metrics.Counter
	shed        *metrics.Counter
}

func newServerMetrics(reg *metrics.Registry) *serverMetrics {
	requests := reg.CounterVec("cinct_http_requests_total", "HTTP requests served, by status code.", "code")
	return &serverMetrics{
		requests:    requests,
		ok:          requests.With(strconv.Itoa(http.StatusOK)),
		seconds:     reg.Histogram("cinct_http_request_seconds", "HTTP request wall time.", metrics.ExpBuckets(0.0001, 4, 10)),
		inflight:    reg.Gauge("cinct_http_inflight", "HTTP requests currently being served."),
		rateLimited: reg.Counter("cinct_http_rate_limited_total", "Requests rejected by the per-client rate limiter."),
		shed:        reg.Counter("cinct_http_shed_total", "Requests rejected by the concurrency gate."),
	}
}

// metricsRecorder observes every request into the server series.
func (s *Server) metricsRecorder() Middleware {
	return func(next APIFunc) APIFunc {
		return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
			start := time.Now()
			s.metrics.inflight.Inc()
			err := next(ctx, w, r)
			s.metrics.inflight.Dec()
			s.metrics.seconds.Observe(time.Since(start).Seconds())
			if err == nil {
				s.metrics.ok.Inc()
			} else {
				s.metrics.requests.With(strconv.Itoa(httpStatus(err))).Inc()
			}
			return err
		}
	}
}

// rateLimit rejects clients that exceed their token bucket with
// ErrRateLimited (→ 429 + Retry-After). A nil limiter (Config.RateLimit
// 0) is a no-op.
func (s *Server) rateLimit() Middleware {
	return func(next APIFunc) APIFunc {
		if s.limiter == nil {
			return next
		}
		return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
			if ok, retry := s.limiter.allow(clientKey(r), time.Now()); !ok {
				s.metrics.rateLimited.Inc()
				return &rateLimitError{retryAfter: retry}
			}
			return next(ctx, w, r)
		}
	}
}

// gate bounds in-flight API requests. Unlike the engine's worker pool
// (which queues), the gate fails fast: a full server is better served
// telling clients to back off than stacking goroutines — the request
// it would queue behind holds an engine slot anyway.
func (s *Server) gate() Middleware {
	return func(next APIFunc) APIFunc {
		if s.inflight == nil {
			return next
		}
		return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
			select {
			case s.inflight <- struct{}{}:
			default:
				s.metrics.shed.Inc()
				return fmt.Errorf("%w: %d requests in flight", engine.ErrOverloaded, cap(s.inflight))
			}
			defer func() { <-s.inflight }()
			return next(ctx, w, r)
		}
	}
}

// timeout bounds the request context; engine work past the deadline
// fails with context.DeadlineExceeded (→ 504).
func (s *Server) timeout() Middleware {
	return func(next APIFunc) APIFunc {
		d := s.cfg.timeout()
		if d <= 0 {
			return next
		}
		return func(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
			ctx, cancel := context.WithTimeout(ctx, d)
			defer cancel()
			return next(ctx, w, r)
		}
	}
}
