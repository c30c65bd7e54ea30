// Package server exposes a cinct engine over HTTP: a moby-style
// router/handler split (each endpoint is a Route owned by a Router,
// assembled onto one mux by Server), canonical JSON wire types shared
// by the daemon and the Client, request-scoped timeouts, and graceful
// shutdown. The daemon binary lives in cmd/cinctd; the same handlers
// serve httptest instances in the differential tests.
package server

import (
	"encoding/json"
	"math"

	"cinct"
	"cinct/internal/engine"
	"cinct/internal/wire"
)

// RuntimeInfo is the engine-wide gauge block of GET /v1/indexes: the
// result cache, the query worker pool and the aggregate WAL footprint
// at the moment of the call — the same numbers GET /metrics exposes,
// in JSON for humans and scripts.
type RuntimeInfo struct {
	CacheHits    int64 `json:"cacheHits"`
	CacheMisses  int64 `json:"cacheMisses"`
	CacheEntries int   `json:"cacheEntries"`
	PoolInflight int   `json:"poolInflight"`
	PoolCapacity int   `json:"poolCapacity"`
	WALSegments  int   `json:"walSegments"`
	WALBytes     int64 `json:"walBytes"`
	WALFsyncs    int64 `json:"walFsyncs"`
}

// ListResponse is the body of GET /v1/indexes.
type ListResponse struct {
	Indexes []engine.Info `json:"indexes"`
	Runtime RuntimeInfo   `json:"runtime"`
}

// TrajectoryResponse is the body of GET /v1/{index}/trajectory/{id}.
type TrajectoryResponse struct {
	Index string   `json:"index"`
	ID    int      `json:"id"`
	Edges []uint32 `json:"edges"`
}

// SubPathResponse is the body of GET /v1/{index}/subpath.
type SubPathResponse struct {
	Index string   `json:"index"`
	ID    int      `json:"id"`
	From  int      `json:"from"`
	To    int      `json:"to"`
	Edges []uint32 `json:"edges"`
}

// QueryRequest is the body of POST /v1/{index}/query — the wire form
// of cinct.Query. Kind is spelled "occurrences" (the default),
// "trajectories" or "count". From/To, when either is present, form the
// closed interval constraint; a missing bound defaults to the widest
// value.
type QueryRequest = wire.Request

// WireQuery converts a library descriptor to the wire form (what
// Client.Search posts).
func WireQuery(q cinct.Query) QueryRequest { return wire.FromQuery(q) }

// QueryHit is one hit record in the NDJSON stream of POST
// /v1/{index}/query. For trajectories-kind queries Offset is -1.
// EnteredAt is present only for interval-constrained queries.
type QueryHit struct {
	Trajectory int    `json:"trajectory"`
	Offset     int    `json:"offset"`
	EnteredAt  *int64 `json:"enteredAt,omitempty"`
}

// QuerySummary is the final NDJSON record of POST /v1/{index}/query:
// done marks a complete stream, count is the hit count (or the full
// occurrence count for count-kind queries), cursor — when present —
// resumes the query past the last streamed hit, and error carries a
// mid-stream failure (in which case done is false and the earlier
// records form a valid prefix of the result).
type QuerySummary struct {
	Done   bool   `json:"done"`
	Count  int    `json:"count"`
	Cursor string `json:"cursor,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ReloadResponse is the body of POST /v1/{index}/reload.
type ReloadResponse struct {
	Index      string `json:"index"`
	Generation uint64 `json:"generation"`
}

// IngestRecord is one NDJSON line of POST /v1/{index}/ingest: a
// trajectory's edges in travel order and, for temporal indexes, the
// aligned entry-timestamp column.
type IngestRecord struct {
	Edges []uint32 `json:"edges"`
	Times []int64  `json:"times,omitempty"`
}

// IngestResponse is the body of POST /v1/{index}/ingest. The batch is
// atomic: either every record was appended (with consecutive global
// IDs starting at FirstID) or none was.
type IngestResponse struct {
	Index    string `json:"index"`
	Appended int    `json:"appended"`
	FirstID  int    `json:"firstId"`
	// Delta is the uncompressed delta's size after the batch (and
	// after the optional seal).
	Delta      int    `json:"deltaTrajectories"`
	Generation uint64 `json:"generation"`
	// Sealed is the number of trajectories compacted when the request
	// asked for ?seal=true.
	Sealed int `json:"sealed,omitempty"`
}

// SealResponse is the body of POST /v1/{index}/seal.
type SealResponse struct {
	Index      string `json:"index"`
	Sealed     int    `json:"sealed"`
	Delta      int    `json:"deltaTrajectories"`
	Generation uint64 `json:"generation"`
}

// CompactResponse is the body of POST /v1/{index}/compact: the sealed
// shard set before and after the merge rounds. Merged is 0 when the
// shard set was already within policy. Compaction never renumbers
// trajectories, so cursors issued before the call stay valid.
type CompactResponse struct {
	Index        string `json:"index"`
	Merged       int    `json:"merged"`
	Rows         int    `json:"rows"`
	Rounds       int    `json:"rounds"`
	ShardsBefore int    `json:"shardsBefore"`
	ShardsAfter  int    `json:"shardsAfter"`
	Generation   uint64 `json:"generation"`
}

// GPSResponse is the body of POST /v1/{index}/gps: one typed result
// per input trace (in order), plus the batch totals. Accepted traces
// were appended atomically with consecutive IDs; rejected ones carry a
// reason code from the gps/mapmatch catalog.
type GPSResponse struct {
	Index string `json:"index"`
	engine.GPSResult
}

// SubscribeRequest is the body of POST /v1/{index}/subscribe: the
// standing-query predicate plus lifecycle knobs. From/To, when either
// is present, constrain matches to entry times within the closed
// interval (temporal indexes only).
type SubscribeRequest struct {
	Path []uint32 `json:"path"`
	From *int64   `json:"from,omitempty"`
	To   *int64   `json:"to,omitempty"`
	// TTLSeconds bounds the subscription's lifetime (0 = server
	// default, 15 minutes).
	TTLSeconds int `json:"ttlSeconds,omitempty"`
	// Buffer is the per-subscriber notification buffer (0 = server
	// default, 64). When it is full, notifications are dropped and
	// counted rather than blocking ingestion.
	Buffer int `json:"buffer,omitempty"`
}

// Predicate converts the wire form to the engine descriptor.
func (sr SubscribeRequest) Predicate() engine.Predicate {
	p := engine.Predicate{Path: sr.Path}
	if sr.From != nil || sr.To != nil {
		iv := &cinct.Interval{From: math.MinInt64, To: math.MaxInt64}
		if sr.From != nil {
			iv.From = *sr.From
		}
		if sr.To != nil {
			iv.To = *sr.To
		}
		p.Interval = iv
	}
	return p
}

// SubscribeResponse is the body of POST /v1/{index}/subscribe: the
// subscription ID plus the paths to consume it — Events streams SSE,
// and DELETE on Cancel ends it.
type SubscribeResponse struct {
	Index        string `json:"index"`
	Subscription string `json:"subscription"`
	// ExpiresAt is the TTL deadline in Unix seconds.
	ExpiresAt int64  `json:"expiresAt"`
	Events    string `json:"events"`
	Cancel    string `json:"cancel"`
}

// CancelResponse is the body of DELETE /v1/{index}/subscriptions/{id}.
type CancelResponse struct {
	Index        string `json:"index"`
	Subscription string `json:"subscription"`
	Cancelled    bool   `json:"cancelled"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WireEdges returns edges, de-nil-ed so it marshals as [] rather than
// null.
func WireEdges(edges []uint32) []uint32 {
	if edges == nil {
		return []uint32{}
	}
	return edges
}

// EncodeJSON is the canonical response encoding: compact json.Marshal
// plus a trailing newline. Handlers, the Client, and the differential
// tests all use it, so "byte-identical to the in-process call" is a
// checkable property rather than an aspiration.
func EncodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
