package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"cinct/internal/engine"
	"cinct/internal/gps"
)

// ingestGPS serves POST /v1/{index}/gps: the body is an NDJSON batch
// of gps.Trace lines — raw (lat, lon, t) observations, optionally with
// per-trace matcher overrides. Each trace is map-matched against the
// index's road network and, on acceptance, appended through the
// ordinary write path (WAL, delta, standing-query notifications).
// Traces succeed or fail independently; the response carries one typed
// result per line, in order.
func (s *Server) ingestGPS(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	traces, err := decodeBatch[gps.Trace](w, r, "trace")
	if err != nil {
		return err
	}
	for i, tr := range traces {
		if len(tr.Points) == 0 {
			return fmt.Errorf("%w: trace %d: missing or empty points", errBadRequest, i)
		}
	}
	res, err := s.eng.IngestGPS(ctx, name, traces)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, GPSResponse{Index: name, GPSResult: res})
}

// subscribe serves POST /v1/{index}/subscribe: it registers a standing
// query and returns the subscription ID plus the endpoints to consume
// it. The body is decoded as strictly as a query's: a misspelt field
// ("ttlSecond") is a 400, not a silent default. Notifications
// accumulate in the subscription's buffer from the moment this call
// returns, so nothing appended between subscribing and attaching to the
// events stream is lost (up to the buffer bound).
func (s *Server) subscribe(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	var req SubscribeRequest
	if err := decodeStrict(w, r.Body, &req); err != nil {
		return err
	}
	sub, err := s.eng.Subscribe(name, req.Predicate(), engine.SubscribeOptions{
		TTL:    time.Duration(req.TTLSeconds) * time.Second,
		Buffer: req.Buffer,
	})
	if err != nil {
		return err
	}
	base := "/v1/" + url.PathEscape(name) + "/subscriptions/" + url.PathEscape(sub.ID())
	return writeJSON(w, http.StatusOK, SubscribeResponse{
		Index:        name,
		Subscription: sub.ID(),
		ExpiresAt:    sub.ExpiresAt().Unix(),
		Events:       base + "/events",
		Cancel:       base,
	})
}

// sseKeepalive is the comment-line cadence that keeps idle SSE
// connections from being reaped by intermediaries.
const sseKeepalive = 15 * time.Second

// events serves GET /v1/{index}/subscriptions/{id}/events as a
// Server-Sent Events stream: one "notification" event per standing-
// query match (data: the JSON Notification), comment keepalives while
// idle, and a final "end" event when the subscription closes (cancel,
// expiry, index close or shutdown). A subscription has one buffer, so
// attach one consumer at a time; what arrives while none is attached
// waits in the buffer.
func (s *Server) events(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	sub, err := s.eng.GetSubscription(name, r.PathValue("id"))
	if err != nil {
		return err
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		return fmt.Errorf("%w: transport does not support streaming", errBadRequest)
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	keepalive := time.NewTicker(sseKeepalive)
	defer keepalive.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil // client went away; the subscription outlives us
		case <-keepalive.C:
			if _, err := io.WriteString(w, ": keepalive\n\n"); err != nil {
				return nil
			}
			flusher.Flush()
		case n, open := <-sub.C():
			if !open {
				io.WriteString(w, "event: end\ndata: {}\n\n") //nolint:errcheck // stream is ending either way
				flusher.Flush()
				return nil
			}
			body, err := json.Marshal(n)
			if err != nil {
				return nil
			}
			if _, err := fmt.Fprintf(w, "event: notification\ndata: %s\n\n", body); err != nil {
				return nil
			}
			flusher.Flush()
		}
	}
}

// cancel serves DELETE /v1/{index}/subscriptions/{id}: the standing
// query is unregistered and its stream closes.
func (s *Server) cancel(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	id := r.PathValue("id")
	if err := s.eng.Unsubscribe(name, id); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CancelResponse{Index: name, Subscription: id, Cancelled: true})
}
