package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cinct/internal/gps"
	"cinct/internal/mapmatch"
	"cinct/internal/roadnet"
)

// The engine's road-network catalog: each index may have a road
// network (with a default matching configuration) attached, and raw
// GPS traces posted to that index are map-matched against it before
// entering the ordinary Append → WAL → delta → seal flow. A graph
// attached under the empty name is the fallback for every index
// without its own.

// ErrNoRoadnet reports a GPS ingest against an index with no road
// network attached (neither its own nor a default).
var ErrNoRoadnet = errors.New("engine: no road network attached")

// roadnetCatalog maps index names to their serving matchers.
type roadnetCatalog struct {
	mu sync.RWMutex
	m  map[string]*gps.Matcher // "" is the default binding
}

func newRoadnetCatalog() *roadnetCatalog {
	return &roadnetCatalog{m: make(map[string]*gps.Matcher)}
}

func (c *roadnetCatalog) set(index string, m *gps.Matcher) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m == nil {
		delete(c.m, index)
		return
	}
	c.m[index] = m
}

func (c *roadnetCatalog) resolve(index string) *gps.Matcher {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m := c.m[index]; m != nil {
		return m
	}
	return c.m[""]
}

// AttachRoadnet binds a road network (with a default matching
// configuration; zero cfg picks gps.NewMatcher's default) to index
// name. name "" attaches the fallback used by every index without its
// own binding. A nil graph detaches.
func (e *Engine) AttachRoadnet(name string, g *roadnet.Graph, cfg mapmatch.Config) {
	if g == nil {
		e.roadnets.set(name, nil)
		return
	}
	e.roadnets.set(name, gps.NewMatcher(g, cfg))
}

// LoadRoadnet reads a CNCTroad container and attaches it to index
// name ("" = default for all indexes) with the default matching
// configuration.
func (e *Engine) LoadRoadnet(name, path string) error {
	g, err := roadnet.LoadFile(path)
	if err != nil {
		return err
	}
	e.AttachRoadnet(name, g, mapmatch.Config{})
	e.logf("engine: road network %s attached to %q (%d nodes, %d edges)",
		path, name, len(g.Nodes), len(g.Edges))
	return nil
}

// Roadnet returns the matcher serving index name (its own binding or
// the default), nil when neither exists.
func (e *Engine) Roadnet(name string) *gps.Matcher { return e.roadnets.resolve(name) }

// GPSTraceResult is the typed per-trace outcome of a GPS ingest: the
// batch is not atomic across traces — each is accepted or rejected on
// its own — so callers get one result per input trace, in order.
type GPSTraceResult struct {
	Accepted bool `json:"accepted"`
	// ID is the accepted trajectory's global ID.
	ID int `json:"id,omitempty"`
	// Edges is the matched path length (stitched connectors included).
	Edges int `json:"edges,omitempty"`
	// Skipped counts interior points dropped as candidate-free gaps.
	Skipped int `json:"skippedPoints,omitempty"`
	// Reject is the reason code from the gps/mapmatch catalog;
	// Point is the offending observation (-1 when not point-specific).
	Reject string `json:"reject,omitempty"`
	Point  int    `json:"point,omitempty"`
}

// GPSResult summarizes one GPS ingest batch.
type GPSResult struct {
	Results  []GPSTraceResult `json:"results"`
	Points   int              `json:"points"`
	Accepted int              `json:"accepted"`
	Rejected int              `json:"rejected"`
	// FirstID/Delta/Generation mirror AppendResult for the accepted
	// rows (meaningful only when Accepted > 0). Accepted traces get
	// consecutive IDs in input order.
	FirstID    int    `json:"firstId"`
	Delta      int    `json:"deltaTrajectories,omitempty"`
	Generation uint64 `json:"generation,omitempty"`
}

// IngestGPS map-matches a batch of raw GPS traces against index
// name's road network and appends the accepted ones atomically (one
// Append batch: consecutive IDs, one WAL record, one generation
// bump). Each trace is accepted or rejected independently with a
// typed reason; a batch where every trace rejects is not an error.
// Standing queries registered on the index see the accepted rows via
// the append path's notification hook.
func (e *Engine) IngestGPS(ctx context.Context, name string, traces []gps.Trace) (GPSResult, error) {
	if err := ctx.Err(); err != nil {
		return GPSResult{}, err
	}
	v, err := e.cat.view(name)
	if err != nil {
		return GPSResult{}, err
	}
	matcher := e.Roadnet(name)
	if matcher == nil {
		return GPSResult{}, fmt.Errorf("%w: index %q", ErrNoRoadnet, name)
	}
	temporal := v.ix.Temporal()

	res := GPSResult{Results: make([]GPSTraceResult, len(traces))}
	var rows [][]uint32
	var cols [][]int64
	accepted := make([]int, 0, len(traces)) // indexes into traces, in append order
	for i, tr := range traces {
		res.Points += len(tr.Points)
		e.metrics.gpsPoints.Add(int64(len(tr.Points)))
		t0 := time.Now()
		m, merr := matcher.Match(tr)
		e.metrics.gpsMatchSec.Observe(time.Since(t0).Seconds())
		if merr == nil && temporal && m.Times == nil {
			// A temporal index cannot absorb an untimed row; reject it
			// typed instead of failing the whole batch in Append.
			merr = &gps.Reject{Reason: gps.RejectUntimed, Point: -1}
		}
		if merr != nil {
			var rej *gps.Reject
			if !errors.As(merr, &rej) {
				rej = &gps.Reject{Reason: gps.RejectNoRoadnet, Point: -1}
			}
			res.Results[i] = GPSTraceResult{Reject: rej.Reason, Point: rej.Point}
			res.Rejected++
			e.metrics.gpsRejected.With(rej.Reason).Inc()
			continue
		}
		res.Results[i] = GPSTraceResult{Accepted: true, Edges: len(m.Edges), Skipped: m.Skipped}
		rows = append(rows, m.Edges)
		if temporal {
			cols = append(cols, m.Times)
		}
		accepted = append(accepted, i)
		res.Accepted++
		e.metrics.gpsMatched.Inc()
	}
	if len(rows) == 0 {
		return res, nil
	}
	ar, err := e.Append(ctx, name, rows, cols)
	if err != nil {
		return GPSResult{}, err
	}
	for k, i := range accepted {
		res.Results[i].ID = ar.FirstID + k
	}
	res.FirstID = ar.FirstID
	res.Delta = ar.Delta
	res.Generation = ar.Generation
	return res, nil
}
