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
	// beyond it are shed with 503 rather than queued. 0 disables the
	// gate.
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

// Server assembles the routers over one engine into an http.Server
// with graceful shutdown. Construct with New, then ListenAndServe (or
// mount Handler() on a test server).
type Server struct {
	eng     *engine.Engine
	cfg     Config
	routers []Router
	httpSrv *http.Server

	metrics  *serverMetrics
	limiter  *rateLimiter
	inflight chan struct{}
	reqSeq   atomic.Uint64
}

// New builds a server over eng.
func New(eng *engine.Engine, cfg Config) *Server {
	s := &Server{
		eng: eng,
		cfg: cfg,
		routers: []Router{
			&systemRouter{eng: eng},
			&queryRouter{eng: eng},
			&gpsRouter{eng: eng},
		},
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
// httptest): every API route behind the middleware chain, plus the
// Prometheus scrape endpoint, which bypasses the chain so overload
// never blinds the monitoring that would diagnose it.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, r := range s.routers {
		for _, route := range r.Routes() {
			mux.Handle(route.Method+" "+route.Pattern, s.wrap(route))
		}
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

// wrap composes the middleware chain around one endpoint and
// terminates it with the error → (status, JSON envelope) mapping.
// Outermost first: request ID + access log, metrics recorder, rate
// limiter, concurrency gate, timeout — so a rejected request is still
// logged and counted, and never consumes a gate slot or a deadline
// timer. Streaming routes keep the observability layers but skip the
// gate and the timeout: a standing stream lives for minutes by design
// and must neither be severed by the request deadline nor pin a
// short-request concurrency slot.
func (s *Server) wrap(route Route) http.Handler {
	h := route.Handler
	if route.Streaming {
		h = chain(h,
			s.requestID(),
			s.metricsRecorder(),
			s.rateLimit(),
		)
	} else {
		h = chain(h,
			s.requestID(),
			s.metricsRecorder(),
			s.rateLimit(),
			s.gate(),
			s.timeout(),
		)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		err := h(r.Context(), w, r)
		if err == nil {
			return
		}
		status := httpStatus(err)
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
		if s.cfg.Logger != nil {
			s.cfg.Logger.Printf("%s %s: %d %v", r.Method, r.URL.Path, status, err)
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
