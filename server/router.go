package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"cinct"
	"cinct/internal/engine"
)

// apiFunc is the signature every endpoint handler implements: request
// → response-or-error, with the transport concerns (status mapping,
// JSON error body, rate limit, gate, deadline) handled once by serve.
type apiFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// route binds one method+pattern (net/http ServeMux syntax, with
// {wildcards}) to a handler.
type route struct {
	Method  string
	Pattern string
	Handler apiFunc
	// Streaming marks a long-lived response (the SSE events stream): the
	// request bypasses the per-request timeout (it would sever the
	// stream mid-life) and the concurrency gate (a handful of standing
	// streams must not starve the short-request budget). Rate limiting
	// and accounting still apply.
	Streaming bool
}

// routes is the served API: every method+pattern Handler mounts.
func (s *Server) routes() []route {
	return []route{
		{Method: http.MethodGet, Pattern: "/v1/indexes", Handler: s.listIndexes},
		{Method: http.MethodPost, Pattern: "/v1/{index}/reload", Handler: s.reloadIndex},
		{Method: http.MethodPost, Pattern: "/v1/{index}/ingest", Handler: s.ingest},
		{Method: http.MethodPost, Pattern: "/v1/{index}/seal", Handler: s.seal},
		{Method: http.MethodPost, Pattern: "/v1/{index}/compact", Handler: s.compact},
		{Method: http.MethodPost, Pattern: "/v1/{index}/query", Handler: s.query},
		{Method: http.MethodGet, Pattern: "/v1/{index}/trajectory/{id}", Handler: s.trajectory},
		{Method: http.MethodGet, Pattern: "/v1/{index}/subpath", Handler: s.subPath},
		{Method: http.MethodPost, Pattern: "/v1/{index}/gps", Handler: s.ingestGPS},
		{Method: http.MethodPost, Pattern: "/v1/{index}/subscribe", Handler: s.subscribe},
		{Method: http.MethodGet, Pattern: "/v1/{index}/subscriptions/{id}/events", Handler: s.events, Streaming: true},
		{Method: http.MethodDelete, Pattern: "/v1/{index}/subscriptions/{id}", Handler: s.cancel},
	}
}

// errBadRequest wraps parameter parse failures so the status mapper
// can distinguish them from engine errors.
var errBadRequest = errors.New("bad request")

// statusClientClosedRequest is the de-facto (nginx) code for a request
// whose client hung up before the reply; net/http has no name for it.
const statusClientClosedRequest = 499

// httpStatus maps an error to its response status code.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, engine.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, cinct.ErrOutOfRange), errors.Is(err, errBadRequest),
		errors.Is(err, cinct.ErrBadQuery), errors.Is(err, cinct.ErrBadCursor),
		errors.Is(err, cinct.ErrBadAppend), errors.Is(err, engine.ErrBadSubscription):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrStaleCursor):
		// The cursor was valid once; the index it pointed into is gone.
		return http.StatusGone
	case errors.Is(err, cinct.ErrNoLocate), errors.Is(err, cinct.ErrNoTimestamps),
		errors.Is(err, cinct.ErrNotAppendable), errors.Is(err, engine.ErrNoRoadnet),
		errors.Is(err, cinct.ErrLegacyFormat):
		// A reload onto a file in an older format: well-formed, only
		// unservable until `cinct convert` rewrites it.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrOverloaded):
		// Shed by the concurrency gate.
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Only the client going away cancels a request context (the
		// server's own deadline reports DeadlineExceeded): accounted, but
		// not as a fault the server committed.
		return statusClientClosedRequest
	case errors.Is(err, cinct.ErrCorrupt):
		// A served file that fails a query: the server's fault, whatever
		// the request asked for.
		return http.StatusInternalServerError
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON sends v with the canonical encoding.
func writeJSON(w http.ResponseWriter, status int, v any) error {
	body, err := EncodeJSON(v)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, err = w.Write(body)
	return err
}

// boolParam parses an optional boolean query parameter: absent or
// empty is false, and anything strconv.ParseBool refuses is a bad
// request rather than a quiet false.
func boolParam(r *http.Request, key string) (bool, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return false, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, fmt.Errorf("%w: bad %s %q", errBadRequest, key, raw)
	}
	return v, nil
}

// requiredIntParam parses a mandatory integer query parameter.
func requiredIntParam(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("%w: missing %s parameter", errBadRequest, key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%w: bad %s %q", errBadRequest, key, raw)
	}
	return v, nil
}
