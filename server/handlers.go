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
	"sync"
	"time"

	"cinct/internal/engine"
)

func badPathID(raw string) error {
	return fmt.Errorf("%w: bad trajectory id %q", errBadRequest, raw)
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

// query serves the one retrieval endpoint: the body is a
// QueryRequest, the response is NDJSON — one QueryHit per line in
// canonical order, then one QuerySummary carrying the count and, for
// bounded pages with more results, the opaque resume cursor. Hits are
// encoded as the engine's iterator produces them and written by the
// flushBytes/flushEvery rule, so a large result set streams without
// the server materializing it beyond what the cache layer retains.
// Errors before the first byte map to normal JSON error responses; a
// mid-stream failure terminates the stream with an error-carrying
// summary record.
func (s *Server) query(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	name := r.PathValue("index")
	req, err := decodeQueryRequest(r.Body)
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
	var streamErr error
	for h, herr := range res.All() {
		if herr != nil {
			streamErr = herr
			break
		}
		rec := QueryHit{Trajectory: h.Trajectory, Offset: h.Offset}
		if q.Interval != nil {
			rec.EnteredAt = &h.EnteredAt
		}
		buf = appendHit(buf, rec)
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
	body, _ := EncodeJSON(sum) // a QuerySummary always marshals
	buf = append(buf, body...)
	if !streamed {
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	}
	w.Write(buf) //nolint:errcheck // stream is best-effort past this point
	return nil
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
