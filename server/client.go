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

// Client speaks the cinctd wire protocol; every cmd/cinct query, ingest
// and compact subcommand runs through it, to a daemon with -remote and
// to the same handlers in-process with -index (an http.Client whose
// Transport calls Server.Handler). Its method set mirrors engine.Engine
// (Search, Trajectory, SubPath, ingest, lifecycle).
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
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// APIError is the typed form of a non-2xx daemon reply: the HTTP
// status, the server's error message, and — for 429/503 — the parsed
// Retry-After hint. errors.Is maps it back onto the sentinel the
// server mapped from (see Is), so remote and in-process callers test
// failures the same way.
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

// Is reads the server's status table backwards. A status only target
// answers (404, 410, 429, 503) matches on the status alone; a status
// several sentinels share (400, 422, and 500, also the answer to every
// unmapped error) matches when the message carries target's text,
// which every handler keeps by wrapping with %w.
func (e *APIError) Is(target error) bool {
	mine, shared := false, e.Status == http.StatusInternalServerError
	for _, s := range statuses {
		if s.status == e.Status {
			if s.err == target {
				mine = true
			} else {
				shared = true
			}
		}
	}
	return mine && (!shared || strings.Contains(e.Message, target.Error()))
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

// do sends one request, with body, when non-nil, under contentType. A
// 2xx reply is returned for the caller to read and close; any other
// becomes its *APIError.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, contentType string, body io.Reader) (*http.Response, error) {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, method, u, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return nil, apiError(resp, raw)
	}
	return resp, nil
}

// call performs one request with do and decodes its JSON reply.
func call[T any](ctx context.Context, c *Client, method, path string, q url.Values, contentType string, body io.Reader) (*T, error) {
	resp, err := c.do(ctx, method, path, q, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, err
	}
	return out, nil
}

// callBatch posts recs as an NDJSON batch with call.
func callBatch[R, T any](ctx context.Context, c *Client, path string, q url.Values, recs []T) (*R, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return call[R](ctx, c, http.MethodPost, path, q, "application/x-ndjson", &body)
}

// Indexes lists the daemon's catalog.
func (c *Client) Indexes(ctx context.Context) ([]engine.Info, error) {
	resp, err := call[ListResponse](ctx, c, http.MethodGet, "/v1/indexes", nil, "", nil)
	if err != nil {
		return nil, err
	}
	return resp.Indexes, nil
}

// Trajectory fetches a full trajectory by ID.
func (c *Client) Trajectory(ctx context.Context, index string, id int) ([]uint32, error) {
	p := "/v1/" + url.PathEscape(index) + "/trajectory/" + strconv.Itoa(id)
	resp, err := call[TrajectoryResponse](ctx, c, http.MethodGet, p, nil, "", nil)
	if err != nil {
		return nil, err
	}
	return resp.Edges, nil
}

// SubPath fetches edges [from, to) of a trajectory.
func (c *Client) SubPath(ctx context.Context, index string, id, from, to int) ([]uint32, error) {
	q := url.Values{
		"traj": {strconv.Itoa(id)},
		"from": {strconv.Itoa(from)},
		"to":   {strconv.Itoa(to)},
	}
	resp, err := call[SubPathResponse](ctx, c, http.MethodGet, "/v1/"+url.PathEscape(index)+"/subpath", q, "", nil)
	if err != nil {
		return nil, err
	}
	return resp.Edges, nil
}

// SearchPage executes exactly one Query page against the daemon,
// decoding the NDJSON stream as it arrives. Most callers want Search,
// which follows cursors transparently. A failure is an *APIError
// whether the server answered it with its status before the stream
// began or with an error summary after (see QuerySummary), so
// errors.Is matches the sentinel either way.
func (c *Client) SearchPage(ctx context.Context, index string, q cinct.Query) (*QueryPage, error) {
	body, err := json.Marshal(WireQuery(q))
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/"+url.PathEscape(index)+"/query", nil, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	page, err := wire.ReadPage(resp.Body)
	var se *wire.StreamError
	if errors.As(err, &se) {
		return nil, &APIError{Status: se.Status, Message: se.Msg}
	}
	return page, err
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
	resp, err := call[ReloadResponse](ctx, c, http.MethodPost, "/v1/"+url.PathEscape(index)+"/reload", nil, "", nil)
	if err != nil {
		return 0, err
	}
	return resp.Generation, nil
}

// Ingest appends a batch of trajectories to a live index over the
// daemon's NDJSON write endpoint. The batch is atomic and immediately
// queryable; with seal the server compacts the delta before replying.
// Temporal indexes require every record to carry Times.
func (c *Client) Ingest(ctx context.Context, index string, recs []IngestRecord, seal bool) (*IngestResponse, error) {
	var q url.Values
	if seal {
		q = url.Values{"seal": {"true"}}
	}
	return callBatch[IngestResponse](ctx, c, "/v1/"+url.PathEscape(index)+"/ingest", q, recs)
}

// IngestGPS posts a batch of raw GPS traces to the daemon's
// map-matching ingest endpoint. Traces are accepted or rejected
// independently; the response carries one typed result per trace in
// input order.
func (c *Client) IngestGPS(ctx context.Context, index string, traces []gps.Trace) (*GPSResponse, error) {
	return callBatch[GPSResponse](ctx, c, "/v1/"+url.PathEscape(index)+"/gps", nil, traces)
}

// Subscribe registers a standing query on the daemon and returns the
// subscription handle (ID, expiry, consume endpoints). Follow up with
// Notifications, and Unsubscribe when done.
func (c *Client) Subscribe(ctx context.Context, index string, req SubscribeRequest) (*SubscribeResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return call[SubscribeResponse](ctx, c, http.MethodPost, "/v1/"+url.PathEscape(index)+"/subscribe", nil, "application/json", bytes.NewReader(body))
}

// Unsubscribe cancels a standing query; its streams close.
func (c *Client) Unsubscribe(ctx context.Context, index, id string) error {
	p := "/v1/" + url.PathEscape(index) + "/subscriptions/" + url.PathEscape(id)
	_, err := call[CancelResponse](ctx, c, http.MethodDelete, p, nil, "", nil)
	return err
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
		p := "/v1/" + url.PathEscape(index) + "/subscriptions/" + url.PathEscape(id) + "/events"
		resp, err := c.do(ctx, http.MethodGet, p, nil, "", nil)
		if err != nil {
			if ctx.Err() == nil {
				yield(engine.Notification{}, err)
			}
			return
		}
		defer resp.Body.Close()
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
// shard and persist it to the index file.
func (c *Client) Seal(ctx context.Context, index string) (*SealResponse, error) {
	return call[SealResponse](ctx, c, http.MethodPost, "/v1/"+url.PathEscape(index)+"/seal", nil, "", nil)
}

// Compact asks the daemon to merge one index's sealed shards per its
// tiered policy, or down to a single shard when full is set.
func (c *Client) Compact(ctx context.Context, index string, full bool) (*CompactResponse, error) {
	var q url.Values
	if full {
		q = url.Values{"full": {"true"}}
	}
	return call[CompactResponse](ctx, c, http.MethodPost, "/v1/"+url.PathEscape(index)+"/compact", q, "", nil)
}
