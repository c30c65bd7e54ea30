package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/gps"
	"cinct/internal/wire"
)

// DefaultPageSize is the page length Client.Search requests per POST
// when the caller did not bound the query (Limit 0) or set PageSize.
const DefaultPageSize = 1000

// Client speaks the cinctd wire protocol; it is what cmd/cinct's
// -remote mode uses, and its method set deliberately mirrors
// engine.Engine (Search, Trajectory, SubPath, ingest, lifecycle) so a
// CLI command can target either transparently.
type Client struct {
	base string
	hc   *http.Client
	// PageSize bounds each page Client.Search fetches while draining an
	// unbounded query; 0 means DefaultPageSize. Set before first use.
	PageSize int
}

// NewClient targets a daemon at base (e.g. "http://localhost:8132").
// httpClient may be nil for http.DefaultClient.
func NewClient(base string, httpClient *http.Client) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: orDefault(httpClient)}
}

func orDefault(hc *http.Client) *http.Client {
	if hc == nil {
		return http.DefaultClient
	}
	return hc
}

// APIError is the typed form of a non-2xx daemon reply: the HTTP
// status, the server's error message, and — for 429/503 — the parsed
// Retry-After hint. errors.Is maps it back onto the sentinel the
// server mapped from, so `errors.Is(err, server.ErrRateLimited)` and
// `errors.Is(err, engine.ErrOverloaded)` work end-to-end across the
// wire.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After hint. A zero duration is a
	// valid hint ("retry immediately"); check HasRetryAfter to
	// distinguish it from "no hint sent".
	RetryAfter    time.Duration
	HasRetryAfter bool
}

func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
	}
	return fmt.Sprintf("server: HTTP %d", e.Status)
}

// Is maps wire statuses back to the typed errors the server mapped
// from, so remote and in-process callers handle overload identically.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrRateLimited:
		return e.Status == http.StatusTooManyRequests
	case engine.ErrOverloaded:
		return e.Status == http.StatusServiceUnavailable
	case engine.ErrNotFound:
		return e.Status == http.StatusNotFound
	case engine.ErrStaleCursor:
		return e.Status == http.StatusGone
	}
	return false
}

// apiError builds the typed error for a non-2xx response whose body
// has already been read.
func apiError(resp *http.Response, body []byte) *APIError {
	e := &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
	var er ErrorResponse
	if json.Unmarshal(body, &er) == nil && er.Error != "" {
		e.Message = er.Error
	}
	if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
		e.RetryAfter, e.HasRetryAfter = d, true
	}
	return e
}

// parseRetryAfter decodes the Retry-After header's two RFC 9110
// shapes: delay-seconds (integral or, leniently, fractional — some
// proxies emit "1.5") and HTTP-date. "0" is a valid hint meaning
// "retry immediately" and must not be conflated with an absent header;
// negative delays and dates in the past clamp to 0.
func parseRetryAfter(v string) (time.Duration, bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs < 0 {
			secs = 0
		}
		return time.Duration(secs * float64(time.Second)), true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}

// call performs one request — sending body, when non-nil, under the
// given content type — and decodes the JSON reply into out, translating
// non-2xx replies into errors carrying the server's message.
func (c *Client) call(ctx context.Context, method, path string, q url.Values, contentType string, body io.Reader, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// ndjson encodes recs one JSON value per line.
func ndjson[T any](recs []T) (*bytes.Buffer, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return &body, nil
}

// Indexes lists the daemon's catalog.
func (c *Client) Indexes(ctx context.Context) ([]engine.Info, error) {
	var resp ListResponse
	if err := c.call(ctx, http.MethodGet, "/v1/indexes", nil, "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Indexes, nil
}

// Trajectory fetches a full trajectory by ID.
func (c *Client) Trajectory(ctx context.Context, index string, id int) ([]uint32, error) {
	var resp TrajectoryResponse
	p := "/v1/" + url.PathEscape(index) + "/trajectory/" + strconv.Itoa(id)
	if err := c.call(ctx, http.MethodGet, p, nil, "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Edges, nil
}

// SubPath fetches edges [from, to) of a trajectory.
func (c *Client) SubPath(ctx context.Context, index string, id, from, to int) ([]uint32, error) {
	var resp SubPathResponse
	q := url.Values{
		"traj": {strconv.Itoa(id)},
		"from": {strconv.Itoa(from)},
		"to":   {strconv.Itoa(to)},
	}
	if err := c.call(ctx, http.MethodGet, "/v1/"+url.PathEscape(index)+"/subpath", q, "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Edges, nil
}

// QueryPage is one decoded page of POST /v1/{index}/query: the hits in
// canonical order, the count reported by the summary record, and the
// resume cursor ("" when the server exhausted the stream).
type QueryPage struct {
	Hits   []cinct.Hit
	Count  int
	Cursor string
}

// SearchPage executes exactly one Query page against the daemon,
// decoding the NDJSON stream as it arrives. Most callers want Search,
// which follows cursors transparently.
func (c *Client) SearchPage(ctx context.Context, index string, q cinct.Query) (*QueryPage, error) {
	body, err := json.Marshal(WireQuery(q))
	if err != nil {
		return nil, err
	}
	u := c.base + "/v1/" + url.PathEscape(index) + "/query"
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, apiError(resp, msg)
	}
	page, err := wire.ReadPage(resp.Body)
	if err != nil {
		var se *wire.StreamError
		if errors.As(err, &se) {
			return nil, fmt.Errorf("server: %s", se.Msg)
		}
		return nil, err
	}
	return &QueryPage{Hits: page.Hits, Count: page.Count, Cursor: page.Cursor}, nil
}

// Search executes a Query against the daemon and returns a lazy hit
// iterator that pages transparently: it fetches cursor-linked pages of
// at most PageSize hits until the stream is exhausted or Limit hits
// have been yielded, so iterating an unbounded query never holds more
// than one page in memory. For CountOnly queries the iterator yields
// nothing; use SearchPage for the number. A transport or
// server failure is yielded once as the final element's error.
func (c *Client) Search(ctx context.Context, index string, q cinct.Query) iter.Seq2[cinct.Hit, error] {
	return func(yield func(cinct.Hit, error) bool) {
		pageSize := c.PageSize
		if pageSize <= 0 {
			pageSize = DefaultPageSize
		}
		yielded := 0
		cursor := q.Cursor
		for {
			pq := q
			pq.Cursor = cursor
			pq.Limit = pageSize
			if q.Limit > 0 && q.Limit-yielded < pageSize {
				pq.Limit = q.Limit - yielded
			}
			page, err := c.SearchPage(ctx, index, pq)
			if err != nil {
				yield(cinct.Hit{}, err)
				return
			}
			for _, h := range page.Hits {
				if !yield(h, nil) {
					return
				}
			}
			yielded += len(page.Hits)
			if q.Kind == cinct.CountOnly || page.Cursor == "" ||
				len(page.Hits) == 0 || (q.Limit > 0 && yielded >= q.Limit) {
				return
			}
			cursor = page.Cursor
		}
	}
}

// Reload asks the daemon to re-read one index from disk; it returns
// the new generation number.
func (c *Client) Reload(ctx context.Context, index string) (uint64, error) {
	var resp ReloadResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/reload", nil, "", nil, &resp); err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

// Ingest appends a batch of trajectories to a live index over the
// daemon's NDJSON write endpoint. The batch is atomic and immediately
// queryable; with seal the server compacts the delta before replying.
// Temporal indexes require every record to carry Times.
func (c *Client) Ingest(ctx context.Context, index string, recs []IngestRecord, seal bool) (*IngestResponse, error) {
	body, err := ndjson(recs)
	if err != nil {
		return nil, err
	}
	var q url.Values
	if seal {
		q = url.Values{"seal": {"true"}}
	}
	var out IngestResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/ingest", q, "application/x-ndjson", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// IngestGPS posts a batch of raw GPS traces to the daemon's
// map-matching ingest endpoint. Traces are accepted or rejected
// independently; the response carries one typed result per trace in
// input order.
func (c *Client) IngestGPS(ctx context.Context, index string, traces []gps.Trace) (*GPSResponse, error) {
	body, err := ndjson(traces)
	if err != nil {
		return nil, err
	}
	var out GPSResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/gps", nil, "application/x-ndjson", body, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Subscribe registers a standing query on the daemon and returns the
// subscription handle (ID, expiry, consume endpoints). Follow up with
// Notifications, and Unsubscribe when done.
func (c *Client) Subscribe(ctx context.Context, index string, req SubscribeRequest) (*SubscribeResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var out SubscribeResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/subscribe", nil, "application/json", bytes.NewReader(body), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unsubscribe cancels a standing query; its streams close.
func (c *Client) Unsubscribe(ctx context.Context, index, id string) error {
	p := "/v1/" + url.PathEscape(index) + "/subscriptions/" + url.PathEscape(id)
	return c.call(ctx, http.MethodDelete, p, nil, "", nil, nil)
}

// Notifications attaches to a subscription's SSE stream and yields
// notifications as the daemon pushes them. The iterator ends cleanly
// when the daemon sends the stream's "end" event (cancel, expiry,
// shutdown), and when ctx is cancelled — which detaches without ending
// the subscription. Any other end yields one final error: a transport
// failure as itself, and a stream that stops without "end" (a daemon
// that died) as io.ErrUnexpectedEOF.
func (c *Client) Notifications(ctx context.Context, index, id string) iter.Seq2[engine.Notification, error] {
	return func(yield func(engine.Notification, error) bool) {
		u := c.base + "/v1/" + url.PathEscape(index) + "/subscriptions/" + url.PathEscape(id) + "/events"
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
		if err != nil {
			yield(engine.Notification{}, err)
			return
		}
		req.Header.Set("Accept", "text/event-stream")
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				yield(engine.Notification{}, err)
			}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			yield(engine.Notification{}, apiError(resp, raw))
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		var event string
		var data bytes.Buffer
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				// Blank line dispatches the accumulated event.
				if event == "end" {
					return
				}
				if event == "notification" && data.Len() > 0 {
					var n engine.Notification
					if err := json.Unmarshal(data.Bytes(), &n); err != nil {
						yield(engine.Notification{}, fmt.Errorf("server: bad notification: %w", err))
						return
					}
					if !yield(n, nil) {
						return
					}
				}
				event, data = "", bytes.Buffer{}
			case strings.HasPrefix(line, ":"):
				// Keepalive comment.
			case strings.HasPrefix(line, "event:"):
				event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
			case strings.HasPrefix(line, "data:"):
				data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
			}
		}
		if ctx.Err() != nil {
			return
		}
		if err = sc.Err(); err == nil {
			err = io.ErrUnexpectedEOF
		}
		yield(engine.Notification{}, err)
	}
}

// Seal asks the daemon to compact one index's delta into a compressed
// shard (persisting it for file-backed indexes).
func (c *Client) Seal(ctx context.Context, index string) (*SealResponse, error) {
	var resp SealResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/seal", nil, "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Compact asks the daemon to merge one index's sealed shards per its
// tiered policy, or down to a single shard when full is set.
func (c *Client) Compact(ctx context.Context, index string, full bool) (*CompactResponse, error) {
	var q url.Values
	if full {
		q = url.Values{"full": {"true"}}
	}
	var resp CompactResponse
	if err := c.call(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/compact", q, "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
