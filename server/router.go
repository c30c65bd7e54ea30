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

// APIFunc is the signature every endpoint handler implements: pure
// request → response-or-error, with transport concerns (status
// mapping, JSON envelope, timeouts) handled once by the server's
// middleware. This is moby's HttpApiFunc shape minus the bits cinct
// does not need.
type APIFunc func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// Route binds one method+pattern (net/http ServeMux syntax, with
// {wildcards}) to a handler.
type Route struct {
	Method  string
	Pattern string
	Handler APIFunc
	// Streaming marks a long-lived response (the SSE events stream): the
	// request bypasses the per-request timeout (it would sever the
	// stream mid-life) and the concurrency gate (a handful of standing
	// streams must not starve the short-request budget). Rate limiting
	// and accounting still apply.
	Streaming bool
}

// Router is a group of related routes; the Server assembles all
// routers onto one mux.
type Router interface {
	Routes() []Route
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
	case errors.Is(err, engine.ErrOutOfRange), errors.Is(err, errBadRequest),
		errors.Is(err, cinct.ErrBadQuery), errors.Is(err, cinct.ErrBadCursor),
		errors.Is(err, cinct.ErrBadAppend), errors.Is(err, engine.ErrBadSubscription):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrStaleCursor):
		// The cursor was valid once; the index it pointed into is gone.
		return http.StatusGone
	case errors.Is(err, engine.ErrNotTemporal), errors.Is(err, engine.ErrNoFile),
		errors.Is(err, cinct.ErrNoLocate), errors.Is(err, cinct.ErrNoTimestamps),
		errors.Is(err, cinct.ErrNotAppendable), errors.Is(err, engine.ErrNoRoadnet),
		errors.Is(err, cinct.ErrLegacyFormat):
		// A reload onto a pre-v3 file: the file is well-formed, only
		// unservable until `cinct convert` rewrites it.
		return http.StatusUnprocessableEntity
	case errors.Is(err, ErrRateLimited):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrOverloaded):
		// Shed by admission control (engine worker pool or server gate).
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// Only the client going away cancels a request context (the
		// server's own deadline reports DeadlineExceeded): accounted, but
		// not as a fault the server committed.
		return statusClientClosedRequest
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
