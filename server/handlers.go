package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"cinct/internal/engine"
)

func badPathID(raw string) error {
	return fmt.Errorf("%w: bad trajectory id %q", errBadRequest, raw)
}

// systemRouter serves catalog-level endpoints: listing and lifecycle.
type systemRouter struct {
	eng *engine.Engine
}

func (sr *systemRouter) Routes() []Route {
	return []Route{
		{Method: http.MethodGet, Pattern: "/v1/indexes", Handler: sr.listIndexes},
		{Method: http.MethodPost, Pattern: "/v1/{index}/reload", Handler: sr.reloadIndex},
		{Method: http.MethodPost, Pattern: "/v1/{index}/ingest", Handler: sr.ingest},
		{Method: http.MethodPost, Pattern: "/v1/{index}/seal", Handler: sr.seal},
		{Method: http.MethodPost, Pattern: "/v1/{index}/compact", Handler: sr.compact},
	}
}

// maxIngestBody bounds one NDJSON ingest batch; maxIngestLine bounds
// one record.
const (
	maxIngestBody = 64 << 20
	maxIngestLine = 1 << 20
)

// ingest serves the write path: the body is an NDJSON batch of
// IngestRecord lines, appended atomically to the named index's live
// delta and queryable as soon as the response is written. With
// ?seal=true the delta is compacted into a compressed shard before
// replying (useful for scripted loads that want durability per
// batch); otherwise sealing is left to the background sealer or an
// explicit POST /v1/{index}/seal.
func (sr *systemRouter) ingest(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	var trajs [][]uint32
	var times [][]int64
	sawTimes := false
	sc := bufio.NewScanner(io.LimitReader(r.Body, maxIngestBody))
	sc.Buffer(make([]byte, 0, 64*1024), maxIngestLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec IngestRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("%w: record %d: %v", errBadRequest, len(trajs), err)
		}
		if len(rec.Edges) == 0 {
			return fmt.Errorf("%w: record %d: missing or empty edges", errBadRequest, len(trajs))
		}
		trajs = append(trajs, rec.Edges)
		times = append(times, rec.Times)
		if rec.Times != nil {
			sawTimes = true
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if len(trajs) == 0 {
		return fmt.Errorf("%w: empty ingest batch", errBadRequest)
	}
	if !sawTimes {
		times = nil // spatial batch: the engine expects no column slice at all
	}
	res, err := sr.eng.Append(ctx, name, trajs, times)
	if err != nil {
		return err
	}
	resp := IngestResponse{
		Index:      name,
		Appended:   res.Appended,
		FirstID:    res.FirstID,
		Delta:      res.Delta,
		Generation: res.Generation,
	}
	if seal := r.URL.Query().Get("seal"); seal == "true" || seal == "1" {
		sres, err := sr.eng.Seal(ctx, name)
		if err != nil {
			return err
		}
		resp.Sealed = sres.Sealed
		resp.Delta = sres.Delta
		resp.Generation = sres.Generation
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (sr *systemRouter) seal(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	res, err := sr.eng.Seal(ctx, name)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, SealResponse{
		Index: name, Sealed: res.Sealed, Delta: res.Delta, Generation: res.Generation,
	})
}

// compact merges the named index's sealed shards down to the engine's
// tiered policy — or, with ?full=true, all the way to a single shard —
// and persists the compacted state. Queries and ingestion proceed
// throughout; the call returns once the shard set reaches its fixpoint.
func (sr *systemRouter) compact(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	full := r.URL.Query().Get("full")
	res, err := sr.eng.Compact(ctx, name, full == "true" || full == "1")
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CompactResponse{
		Index: name, Merged: res.Merged, Rows: res.Rows, Rounds: res.Rounds,
		ShardsBefore: res.ShardsBefore, ShardsAfter: res.ShardsAfter,
		Generation: res.Generation,
	})
}

func (sr *systemRouter) listIndexes(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	resp := ListResponse{Indexes: make([]engine.Info, 0)}
	for _, name := range sr.eng.Names() {
		info, err := sr.eng.Info(name)
		if err != nil {
			// Closed between Names and Info: skip rather than fail the
			// whole listing.
			continue
		}
		resp.Indexes = append(resp.Indexes, info)
	}
	hits, misses, entries := sr.eng.CacheStats()
	inflight, capacity := sr.eng.PoolStats()
	segs, walBytes, fsyncs := sr.eng.WALStats()
	resp.Runtime = RuntimeInfo{
		CacheHits:    int64(hits),
		CacheMisses:  int64(misses),
		CacheEntries: entries,
		PoolInflight: inflight,
		PoolCapacity: capacity,
		WALSegments:  segs,
		WALBytes:     walBytes,
		WALFsyncs:    fsyncs,
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (sr *systemRouter) reloadIndex(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	gen, err := sr.eng.Reload(name)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, ReloadResponse{Index: name, Generation: gen})
}

// queryRouter serves per-index query endpoints.
type queryRouter struct {
	eng *engine.Engine
}

func (qr *queryRouter) Routes() []Route {
	return []Route{
		{Method: http.MethodPost, Pattern: "/v1/{index}/query", Handler: qr.query},
		{Method: http.MethodGet, Pattern: "/v1/{index}/trajectory/{id}", Handler: qr.trajectory},
		{Method: http.MethodGet, Pattern: "/v1/{index}/subpath", Handler: qr.subPath},
	}
}

// maxRequestBody bounds a JSON request body (a query or a
// subscription).
const maxRequestBody = 1 << 20

// decodeStrict reads a JSON request body into v: exactly one object
// with no unknown fields, else errBadRequest. Strictness is the point —
// a misspelt "limit" must fail, not run as an unbounded stream.
func decodeStrict(body io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after the request object", errBadRequest)
	}
	return nil
}

// decodeQueryRequest reads the body of POST /v1/{index}/query with
// decodeStrict and requires a path.
func decodeQueryRequest(body io.Reader) (QueryRequest, error) {
	var req QueryRequest
	if err := decodeStrict(body, &req); err != nil {
		return req, err
	}
	if len(req.Path) == 0 {
		return req, fmt.Errorf("%w: missing or empty path", errBadRequest)
	}
	return req, nil
}

// query serves the one retrieval endpoint: the body is a
// QueryRequest, the response is NDJSON — one QueryHit per line in
// canonical order, then one QuerySummary carrying the count and, for
// bounded pages with more results, the opaque resume cursor. Hits are
// written (and flushed) as the engine's iterator produces them, so a
// large result set streams without the server materializing it beyond
// what the cache layer retains. Errors before the first byte map to
// normal JSON error responses; a mid-stream failure terminates the
// stream with an error-carrying summary record.
func (qr *queryRouter) query(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	req, err := decodeQueryRequest(r.Body)
	if err != nil {
		return err
	}
	q, err := req.Query()
	if err != nil {
		return err
	}
	res, err := qr.eng.Search(ctx, name, q)
	if err != nil {
		return err
	}
	defer res.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeRecord := func(v any) error {
		body, err := EncodeJSON(v)
		if err != nil {
			return err
		}
		if _, err := w.Write(body); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	var streamErr error
	for h, herr := range res.All() {
		if herr != nil {
			streamErr = herr
			break
		}
		rec := QueryHit{Trajectory: h.Trajectory, Offset: h.Offset}
		if q.Interval != nil {
			at := h.EnteredAt
			rec.EnteredAt = &at
		}
		if err := writeRecord(rec); err != nil {
			// The client went away mid-stream; nothing left to tell it.
			return nil
		}
	}
	sum := QuerySummary{}
	if streamErr == nil {
		n, cerr := res.Count()
		if cerr != nil {
			streamErr = cerr
		} else {
			sum.Done = true
			sum.Count = n
			sum.Cursor = res.Cursor()
		}
	}
	if streamErr != nil {
		sum.Error = streamErr.Error()
	}
	writeRecord(sum) //nolint:errcheck // stream is best-effort past this point
	return nil
}

func (qr *queryRouter) trajectory(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return badPathID(r.PathValue("id"))
	}
	edges, err := qr.eng.Trajectory(ctx, name, id)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, TrajectoryResponse{
		Index: name, ID: id, Edges: WireEdges(edges),
	})
}

func (qr *queryRouter) subPath(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	id, err := requiredIntParam(r, "traj")
	if err != nil {
		return err
	}
	from, err := requiredIntParam(r, "from")
	if err != nil {
		return err
	}
	to, err := requiredIntParam(r, "to")
	if err != nil {
		return err
	}
	edges, err := qr.eng.SubPath(ctx, name, id, from, to)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, SubPathResponse{
		Index: name, ID: id, From: from, To: to, Edges: WireEdges(edges),
	})
}
