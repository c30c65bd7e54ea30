package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cinct/internal/engine"
	"cinct/internal/wire"
)

func badPathID(raw string) error {
	return fmt.Errorf("%w: bad trajectory id %q", errBadRequest, raw)
}

// maxIngestBody bounds one NDJSON ingest batch.
const maxIngestBody = 64 << 20

// decodeBatch reads the body of an NDJSON batch route (ingest, gps)
// with wire.ReadBatch. A batch is atomic, so a body past maxIngestBody
// is refused whole rather than cut short and acknowledged, as is an
// empty one.
func decodeBatch[T any](w http.ResponseWriter, r *http.Request, what string) ([]T, error) {
	recs, err := wire.ReadBatch[T](http.MaxBytesReader(w, r.Body, maxIngestBody), what)
	if err != nil {
		return nil, bodyError(err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", errBadRequest)
	}
	return recs, nil
}

// bodyError is the bad request a failed body read answers; a body past
// its http.MaxBytesReader cap names the cap.
func bodyError(err error) error {
	var mb *http.MaxBytesError
	if errors.As(err, &mb) {
		return fmt.Errorf("%w: body over the %d-byte cap", errBadRequest, mb.Limit)
	}
	return fmt.Errorf("%w: %v", errBadRequest, err)
}

// ingest serves the write path: the body is an NDJSON batch of
// IngestRecord lines, appended atomically to the named index's live
// delta and queryable as soon as the response is written. With
// ?seal=true the delta is sealed into a compressed shard before
// replying (useful for scripted loads that want durability per
// batch); otherwise sealing is left to the threshold seal or an
// explicit POST /v1/{index}/seal. Any ?seal value strconv.ParseBool
// refuses is a 400, and the batch is not appended.
func (s *Server) ingest(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	// Parsed before the append: a bad value must not land the batch.
	seal, err := boolParam(r, "seal")
	if err != nil {
		return err
	}
	recs, err := decodeBatch[IngestRecord](w, r, "record")
	if err != nil {
		return err
	}
	trajs := make([][]uint32, len(recs))
	times := make([][]int64, len(recs))
	sawTimes := false
	for i, rec := range recs {
		if len(rec.Edges) == 0 {
			return fmt.Errorf("%w: record %d: missing or empty edges", errBadRequest, i)
		}
		trajs[i], times[i] = rec.Edges, rec.Times
		sawTimes = sawTimes || rec.Times != nil
	}
	if !sawTimes {
		times = nil // spatial batch: the engine expects no column slice at all
	}
	res, err := s.eng.Append(ctx, name, trajs, times)
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
	if seal {
		sres, err := s.eng.Seal(ctx, name)
		if err != nil {
			return err
		}
		resp.Sealed = sres.Sealed
		resp.Delta = sres.Delta
		resp.Generation = sres.Generation
	}
	return writeJSON(w, http.StatusOK, resp)
}

func (s *Server) seal(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	res, err := s.eng.Seal(ctx, name)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, SealResponse{Index: name, SealResult: res})
}

// compact merges the named index's sealed shards down to the default
// tiered policy — or, with ?full=true, all the way to a single shard —
// and persists the compacted state. Queries and ingestion proceed
// throughout; the call returns once the shard set reaches its fixpoint.
func (s *Server) compact(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	full, err := boolParam(r, "full")
	if err != nil {
		return err
	}
	res, err := s.eng.Compact(ctx, name, full)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, CompactResponse{Index: name, CompactResult: res})
}

func (s *Server) listIndexes(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	resp := ListResponse{Indexes: make([]engine.Info, 0)}
	for _, name := range s.eng.Names() {
		info, err := s.eng.Info(name)
		if err != nil {
			// Closed between Names and Info: skip rather than fail the
			// whole listing.
			continue
		}
		resp.Indexes = append(resp.Indexes, info)
	}
	hits, misses, entries := s.eng.CacheStats()
	inflight, capacity := s.eng.PoolStats()
	segs, walBytes, fsyncs := s.eng.WALStats()
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

func (s *Server) reloadIndex(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	gen, err := s.eng.Reload(name)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, ReloadResponse{Index: name, Generation: gen})
}

// maxRequestBody bounds a JSON request body (a query or a
// subscription).
const maxRequestBody = 1 << 20

// decodeStrict reads a JSON request body into v: exactly one object
// with no unknown fields, else errBadRequest. Strictness is the point —
// a misspelt "limit" must fail, not run as an unbounded stream. The
// body is capped at maxRequestBody, and bytes past the cap after the
// object are trailing data too.
func decodeStrict(w http.ResponseWriter, body io.ReadCloser, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("%w: trailing data after the request object", errBadRequest)
	}
	return nil
}

// decodeQueryRequest reads the body of POST /v1/{index}/query with
// decodeStrict and requires a path.
func decodeQueryRequest(w http.ResponseWriter, body io.ReadCloser) (QueryRequest, error) {
	var req QueryRequest
	if err := decodeStrict(w, body, &req); err != nil {
		return req, err
	}
	if len(req.Path) == 0 {
		return req, fmt.Errorf("%w: missing or empty path", errBadRequest)
	}
	return req, nil
}

// A query stream's records collect in one buffer that goes out
// mid-stream only once it holds flushBytes, or once flushEvery has
// passed since the last write, checked at each record boundary. A
// page that never reaches either leaves as one write, at the end, with
// a Content-Length; a large or slow stream still arrives as it is
// produced.
const (
	flushBytes = 4 << 10
	flushEvery = 5 * time.Millisecond
)

// pageBufs recycles query stream buffers.
var pageBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2*flushBytes)
	return &b
}}

// endStream ends a query reply with sum, or with err when it is
// non-nil, after the records in buf; streamed says whether some of the
// body has already been written. A failure before that is returned as
// it is, so serve answers it with its status and an error body like any
// route's. After it the 200 has gone out, so the stream ends with a
// summary carrying the error and its status, and the error comes back
// as a streamedError.
func endStream(w http.ResponseWriter, buf []byte, streamed bool, sum QuerySummary, err error) error {
	if err != nil {
		if !streamed {
			return err
		}
		sum = QuerySummary{Error: err.Error(), Status: httpStatus(err)}
	}
	buf = wire.AppendSummary(buf, sum)
	if !streamed {
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	}
	w.Write(buf) //nolint:errcheck // the reply ends here either way
	if err != nil {
		return streamedError{err}
	}
	return nil
}

// streamedError is a failure a handler has already reported inside the
// reply it began: serve counts and logs its status, and writes nothing
// more.
type streamedError struct{ error }

func (e streamedError) Unwrap() error { return e.error }

// query serves the one retrieval endpoint: the body is a
// QueryRequest, the response is NDJSON — one QueryHit per line in
// canonical order, then one QuerySummary carrying the count and, for
// bounded pages with more results, the opaque resume cursor. Hits are
// encoded as the engine's iterator produces them and written by the
// flushBytes/flushEvery rule, so a large result set streams without
// the server materializing it beyond what the cache layer retains.
// endStream answers a failure.
func (s *Server) query(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	req, err := decodeQueryRequest(w, r.Body)
	if err != nil {
		return err
	}
	q, err := req.Query()
	if err != nil {
		return err
	}
	res, err := s.eng.Search(ctx, name, q)
	if err != nil {
		return err
	}
	defer res.Close()
	bp := pageBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	defer func() {
		*bp = buf[:0]
		pageBufs.Put(bp)
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	streamed := false // some of the body has already been written
	last := time.Now()
	for h, herr := range res.All() {
		if herr != nil {
			err = herr
			break
		}
		rec := QueryHit{Trajectory: h.Trajectory, Offset: h.Offset}
		if q.Interval != nil {
			rec.EnteredAt = &h.EnteredAt
		}
		buf = wire.AppendHit(buf, rec)
		if len(buf) < flushBytes && time.Since(last) < flushEvery {
			continue
		}
		if _, err := w.Write(buf); err != nil {
			// The client went away mid-stream; nothing left to tell it.
			return nil
		}
		if flusher != nil {
			flusher.Flush()
		}
		buf, streamed, last = buf[:0], true, time.Now()
	}
	sum := QuerySummary{Done: true}
	if err == nil {
		sum.Count, err = res.Count()
		sum.Cursor = res.Cursor()
	}
	return endStream(w, buf, streamed, sum, err)
}

func (s *Server) trajectory(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return badPathID(r.PathValue("id"))
	}
	edges, err := s.eng.Trajectory(ctx, name, id)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, TrajectoryResponse{
		Index: name, ID: id, Edges: WireEdges(edges),
	})
}

func (s *Server) subPath(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
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
	edges, err := s.eng.SubPath(ctx, name, id, from, to)
	if err != nil {
		return err
	}
	return writeJSON(w, http.StatusOK, SubPathResponse{
		Index: name, ID: id, From: from, To: to, Edges: WireEdges(edges),
	})
}
