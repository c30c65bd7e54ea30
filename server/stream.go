package server

import (
	"bufio"
	"bytes"
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

// gpsRouter serves the raw-ingestion front door and standing queries:
// device traces go in as NDJSON point batches, matched trajectories
// come back out as push notifications over SSE.
type gpsRouter struct {
	eng *engine.Engine
}

func (gr *gpsRouter) Routes() []Route {
	return []Route{
		{Method: http.MethodPost, Pattern: "/v1/{index}/gps", Handler: gr.ingestGPS},
		{Method: http.MethodPost, Pattern: "/v1/{index}/subscribe", Handler: gr.subscribe},
		{Method: http.MethodGet, Pattern: "/v1/{index}/subscriptions/{id}/events", Handler: gr.events, Streaming: true},
		{Method: http.MethodDelete, Pattern: "/v1/{index}/subscriptions/{id}", Handler: gr.cancel},
	}
}

// ingestGPS serves POST /v1/{index}/gps: the body is an NDJSON batch
// of gps.Trace lines — raw (lat, lon, t) observations, optionally with
// per-trace matcher overrides. Each trace is map-matched against the
// index's road network and, on acceptance, appended through the
// ordinary write path (WAL, delta, standing-query notifications).
// Traces succeed or fail independently; the response carries one typed
// result per line, in order.
func (gr *gpsRouter) ingestGPS(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	var traces []gps.Trace
	sc := bufio.NewScanner(io.LimitReader(r.Body, maxIngestBody))
	sc.Buffer(make([]byte, 0, 64*1024), maxIngestLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var tr gps.Trace
		if err := json.Unmarshal(line, &tr); err != nil {
			return fmt.Errorf("%w: trace %d: %v", errBadRequest, len(traces), err)
		}
		if len(tr.Points) == 0 {
			return fmt.Errorf("%w: trace %d: missing or empty points", errBadRequest, len(traces))
		}
		traces = append(traces, tr)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if len(traces) == 0 {
		return fmt.Errorf("%w: empty gps batch", errBadRequest)
	}
	res, err := gr.eng.IngestGPS(ctx, name, traces)
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
func (gr *gpsRouter) subscribe(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	var req SubscribeRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		return err
	}
	s, err := gr.eng.Subscribe(name, req.Predicate(), engine.SubscribeOptions{
		TTL:    time.Duration(req.TTLSeconds) * time.Second,
		Buffer: req.Buffer,
	})
	if err != nil {
		return err
	}
	base := "/v1/" + url.PathEscape(name) + "/subscriptions/" + url.PathEscape(s.ID())
	return writeJSON(w, http.StatusOK, SubscribeResponse{
		Index:        name,
		Subscription: s.ID(),
		ExpiresAt:    s.ExpiresAt().Unix(),
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
func (gr *gpsRouter) events(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	s, err := gr.eng.GetSubscription(name, r.PathValue("id"))
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
		case n, open := <-s.C():
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
func (gr *gpsRouter) cancel(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	id := r.PathValue("id")
	if err := gr.eng.Unsubscribe(name, id); err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CancelResponse{Index: name, Subscription: id, Cancelled: true})
}
