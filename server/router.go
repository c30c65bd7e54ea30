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

// statuses is the one error-to-status table: httpStatus answers the
// status of the first sentinel an error wraps, and APIError.Is reads it
// back on the client side. Each sentinel is listed once.
var statuses = []struct {
	err    error
	status int
}{
	{engine.ErrNotFound, http.StatusNotFound},
	{cinct.ErrOutOfRange, http.StatusBadRequest},
	{errBadRequest, http.StatusBadRequest},
	{cinct.ErrBadQuery, http.StatusBadRequest},
	{cinct.ErrBadCursor, http.StatusBadRequest},
	{cinct.ErrBadAppend, http.StatusBadRequest},
	{engine.ErrBadSubscription, http.StatusBadRequest},
	// The cursor was valid once; the index it pointed into is gone.
	{engine.ErrStaleCursor, http.StatusGone},
	{cinct.ErrNoLocate, http.StatusUnprocessableEntity},
	{cinct.ErrNoTimestamps, http.StatusUnprocessableEntity},
	{cinct.ErrNotAppendable, http.StatusUnprocessableEntity},
	{engine.ErrNoRoadnet, http.StatusUnprocessableEntity},
	// A reload onto a file in an older format: well-formed, only
	// unservable until `cinct convert` rewrites it.
	{cinct.ErrLegacyFormat, http.StatusUnprocessableEntity},
	{ErrRateLimited, http.StatusTooManyRequests},
	// Shed by the concurrency gate.
	{ErrOverloaded, http.StatusServiceUnavailable},
	// A served file that fails a query: the server's fault, whatever
	// the request asked for.
	{cinct.ErrCorrupt, http.StatusInternalServerError},
}

// httpStatus maps an error to its response status code.
func httpStatus(err error) int {
	for _, s := range statuses {
		if errors.Is(err, s.err) {
			return s.status
		}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Only the client going away cancels a request context (the
		// server's own deadline reports DeadlineExceeded): accounted, but
		// not as a fault the server committed.
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
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
