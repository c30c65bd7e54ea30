package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"cinct/internal/engine"
	"cinct/internal/metrics"
)

// Config tunes a Server. The zero value serves on :8132 with a 30s
// per-request timeout, no rate limiting and no concurrency gate.
type Config struct {
	// Addr is the listen address for ListenAndServe.
	Addr string
	// RequestTimeout bounds each request's context; engine queries
	// waiting on a worker slot fail with 504 when it expires. 0 means
	// 30s; negative disables the per-request deadline.
	RequestTimeout time.Duration
	// Logger receives one access-log line per request and one line per
	// failed request; nil discards both.
	Logger *log.Logger
	// RateLimit is the per-client request budget in requests/second
	// (keyed by X-Client-ID, falling back to remote IP). Clients over
	// budget get 429 with a Retry-After hint. 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth per client; 0 means
	// max(2×RateLimit, 1).
	RateBurst int
	// MaxInflight caps concurrently served API requests; requests
	// beyond it are shed with 503 (ErrOverloaded) rather than queued.
	// It is the one place load is shed. 0 disables the gate.
	MaxInflight int
}

func (c Config) addr() string {
	if c.Addr == "" {
		return ":8132"
	}
	return c.Addr
}

func (c Config) timeout() time.Duration {
	switch {
	case c.RequestTimeout > 0:
		return c.RequestTimeout
	case c.RequestTimeout < 0:
		return 0
	}
	return 30 * time.Second
}

func (c Config) burst() int {
	if c.RateBurst > 0 {
		return c.RateBurst
	}
	if b := int(2 * c.RateLimit); b > 1 {
		return b
	}
	return 1
}

// Server serves the route table over one engine as an http.Server
// with graceful shutdown. Construct with New, then ListenAndServe (or
// mount Handler() on a test server).
type Server struct {
	eng     *engine.Engine
	cfg     Config
	httpSrv *http.Server

	metrics  *serverMetrics
	limiter  *rateLimiter
	inflight chan struct{}
	reqSeq   atomic.Uint64
}

// New builds a server over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	s := &Server{
		eng:     eng,
		cfg:     cfg,
		metrics: newServerMetrics(eng.Metrics()),
	}
	if cfg.RateLimit > 0 {
		s.limiter = newRateLimiter(cfg.RateLimit, cfg.burst())
	}
	if cfg.MaxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	s.httpSrv = &http.Server{
		Addr:              cfg.addr(),
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Handler returns the fully assembled mux (usable directly under
// httptest): every API route behind serve, plus the Prometheus scrape
// endpoint, which bypasses serve so overload never blinds the
// monitoring that would diagnose it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.Handle(rt.Method+" "+rt.Pattern, s.serve(rt))
	}
	mux.HandleFunc("GET /metrics", s.serveMetrics)
	return mux
}

// serveMetrics renders the engine's registry (which the server's HTTP
// series are registered into) in the Prometheus text format.
func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := s.eng.Metrics().WriteTo(w); err != nil && s.cfg.Logger != nil {
		s.cfg.Logger.Printf("GET /metrics: %v", err)
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

// serve is the one request path every API route takes, in this order:
//
//  1. a request id, and one access-log line carrying it, the status
//     and the wall time once the request is done;
//  2. the metrics: in-flight gauge, latency and a count by status;
//  3. the per-client rate limit (429 + Retry-After);
//  4. the concurrency gate (503, fail fast rather than queue) and the
//     request deadline (504 once engine work outlives it);
//  5. the handler;
//  6. a returned error becomes its status, a Retry-After hint where
//     one applies, and a JSON error body — unless the handler had
//     already begun its reply and reported the failure in it
//     (streamedError), when the status is only counted and logged.
//
// A rejected request is still logged and counted, and never takes a
// gate slot or a deadline timer. Streaming routes skip step 4: a
// standing stream lives for minutes by design and must neither be cut
// by the deadline nor pin a short-request slot.
func (s *Server) serve(rt route) http.Handler {
	timeout := s.cfg.timeout()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		start := time.Now()
		s.metrics.inflight.Inc()
		// Steps 3–5 run in a closure so its defers free the gate slot
		// and the deadline timer, even on a panic, before the request
		// is counted, logged and answered.
		err := func() error {
			if s.limiter != nil {
				if ok, retry := s.limiter.allow(clientKey(r), time.Now()); !ok {
					s.metrics.rateLimited.Inc()
					return &rateLimitError{retryAfter: retry}
				}
			}
			ctx := r.Context()
			if !rt.Streaming {
				if s.inflight != nil {
					select {
					case s.inflight <- struct{}{}:
					default:
						s.metrics.shed.Inc()
						return fmt.Errorf("%w: %d requests in flight", ErrOverloaded, cap(s.inflight))
					}
					defer func() { <-s.inflight }()
				}
				if timeout > 0 {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, timeout)
					defer cancel()
				}
			}
			return rt.Handler(ctx, w, r)
		}()
		s.metrics.inflight.Dec()
		elapsed := time.Since(start)
		s.metrics.seconds.Observe(elapsed.Seconds())
		status := http.StatusOK
		if err == nil {
			s.metrics.ok.Inc()
		} else {
			status = httpStatus(err)
			s.metrics.requests.With(strconv.Itoa(status)).Inc()
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("req#%d %s %s %d %s", id, r.Method, r.URL.Path, status, elapsed.Round(time.Microsecond))
		}
		if err == nil {
			return
		}
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s: %d %v", r.Method, r.URL.Path, status, err)
		}
		if errors.As(err, new(streamedError)) {
			return // the reply the handler began already carries the failure
		}
		switch status {
		case http.StatusTooManyRequests:
			var rl *rateLimitError
			if errors.As(err, &rl) {
				w.Header().Set("Retry-After", retryAfterSeconds(rl.retryAfter))
			} else {
				w.Header().Set("Retry-After", "1")
			}
		case http.StatusServiceUnavailable:
			// Shed load is transient by construction; any in-flight
			// request finishing frees capacity.
			w.Header().Set("Retry-After", "1")
		}
		if status == statusClientClosedRequest {
			// Nobody is left to read an error body.
			w.WriteHeader(status)
			return
		}
		if werr := writeJSON(w, status, ErrorResponse{Error: err.Error()}); werr != nil && s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s: writing error response: %v", r.Method, r.URL.Path, werr)
		}
	})
}

// retryAfterSeconds renders a wait as the integral seconds Retry-After
// requires, rounding up so "retry after 0s" never lies.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// ListenAndServe serves until the listener fails or Shutdown is
// called; a clean shutdown returns nil.
func (s *Server) ListenAndServe() error {
	err := s.httpSrv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Serve serves on an existing listener (tests bind :0 and read
// l.Addr() back).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains in-flight requests (bounded by ctx) and stops the
// listener; it does not close the engine, which the caller owns.
func (s *Server) Shutdown(ctx context.Context) error {
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}
