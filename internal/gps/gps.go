// Package gps is the front of the raw-ingestion pipeline: it turns
// noisy device traces — batches of (lat, lon, t) observations — into
// the map-matched edge sequences (plus interpolated per-edge
// timestamp columns) that the trajectory indexes consume. Matching is
// delegated to internal/mapmatch; this package owns the wire shapes,
// the per-trace configuration overrides, timestamp validation and
// interpolation, and the typed reject-reason catalog that ingestion
// endpoints report verbatim.
//
// Coordinates are planar: on the synthetic road networks this
// repository generates, Lon maps to X and Lat to Y directly. A real
// deployment would project WGS-84 into a local planar frame first;
// that projection is the only piece missing from this pipeline.
package gps

import (
	"errors"
	"fmt"
	"math/rand"

	"cinct/internal/mapmatch"
	"cinct/internal/roadnet"
)

// Point is one raw GPS observation on the wire.
type Point struct {
	Lat float64 `json:"lat"`
	Lon float64 `json:"lon"`
	// T is the observation timestamp (epoch seconds or any
	// non-decreasing integer clock). A trace whose points are all
	// T == 0 is treated as untimed.
	T int64 `json:"t"`
}

// Trace is one device trace: an ordered point batch plus optional
// per-trace matcher overrides (zero values fall back to the serving
// matcher's defaults).
type Trace struct {
	Points []Point `json:"points"`
	// Radius overrides the candidate radius for this trace.
	Radius float64 `json:"radius,omitempty"`
	// MaxGap overrides the longest skippable run of candidate-free
	// interior points; nil keeps the matcher default, 0 is strict.
	MaxGap *int `json:"maxGap,omitempty"`
	// MinMargin overrides the reject-on-ambiguity margin; nil keeps
	// the matcher default, 0 disables the check.
	MinMargin *float64 `json:"minMargin,omitempty"`
}

// Timed reports whether the trace carries timestamps (any non-zero T).
func (tr Trace) Timed() bool {
	for _, p := range tr.Points {
		if p.T != 0 {
			return true
		}
	}
	return false
}

// Reject-reason catalog. The mapmatch reasons pass through verbatim;
// the two reasons below originate in this layer and the engine.
const (
	// RejectBadTimestamps: the trace claims timestamps but they are
	// not non-decreasing.
	RejectBadTimestamps = "bad_timestamps"
	// RejectNoRoadnet: the target index has no road network attached,
	// so raw GPS cannot be matched at all.
	RejectNoRoadnet = "no_roadnet"
	// RejectUntimed: the target index is temporal but the trace
	// carries no timestamps.
	RejectUntimed = "untimed"
)

// Reject is the typed per-trace failure: a reason from the catalog
// plus the offending point index (-1 when no single point is at
// fault).
type Reject struct {
	Reason string
	Point  int
}

func (e *Reject) Error() string {
	if e.Point < 0 {
		return fmt.Sprintf("gps: trace rejected: %s", e.Reason)
	}
	return fmt.Sprintf("gps: trace rejected at point %d: %s", e.Point, e.Reason)
}

// Matched is one successfully map-matched trace, in the shape Append
// wants: the connected edge path and, for timed traces, a per-edge
// timestamp column aligned with it.
type Matched struct {
	Edges []uint32
	// Times is nil for untimed traces. For timed ones, anchored edges
	// carry their observation's timestamp and stitched connector edges
	// are linearly interpolated between the surrounding anchors, so
	// the column is non-decreasing.
	Times []int64
	// Skipped counts interior points dropped as candidate-free gaps.
	Skipped int
	// Points is the number of observations consumed.
	Points int
}

// Matcher binds a road network to a default matching configuration —
// the per-index serving object the engine's graph catalog hands out.
type Matcher struct {
	g   *roadnet.Graph
	cfg mapmatch.Config
}

// NewMatcher builds a Matcher; a zero cfg is replaced by
// mapmatch.DefaultConfig with MaxGap 2.
func NewMatcher(g *roadnet.Graph, cfg mapmatch.Config) *Matcher {
	if cfg == (mapmatch.Config{}) {
		cfg = mapmatch.DefaultConfig()
		cfg.MaxGap = 2
	}
	return &Matcher{g: g, cfg: cfg}
}

// Graph returns the underlying road network.
func (m *Matcher) Graph() *roadnet.Graph { return m.g }

// Config returns the default matching configuration.
func (m *Matcher) Config() mapmatch.Config { return m.cfg }

// Match turns one trace into an indexable trajectory. Failures are
// always a *Reject with a catalog reason.
func (m *Matcher) Match(tr Trace) (Matched, error) {
	cfg := m.cfg
	if tr.Radius > 0 {
		cfg.CandidateRadius = tr.Radius
	}
	if tr.MaxGap != nil {
		cfg.MaxGap = *tr.MaxGap
	}
	if tr.MinMargin != nil {
		cfg.MinMargin = *tr.MinMargin
	}
	timed := tr.Timed()
	if timed {
		for i := 1; i < len(tr.Points); i++ {
			if tr.Points[i].T < tr.Points[i-1].T {
				return Matched{}, &Reject{Reason: RejectBadTimestamps, Point: i}
			}
		}
	}
	pts := make([]mapmatch.Point, len(tr.Points))
	for i, p := range tr.Points {
		pts[i] = mapmatch.Point{X: p.Lon, Y: p.Lat}
	}
	r, err := mapmatch.MatchTrace(m.g, pts, cfg)
	if err != nil {
		var rej *mapmatch.RejectError
		if errors.As(err, &rej) {
			return Matched{}, &Reject{Reason: string(rej.Reason), Point: rej.Point}
		}
		return Matched{}, &Reject{Reason: string(mapmatch.RejectDisconnected), Point: -1}
	}
	out := Matched{
		Edges:   make([]uint32, len(r.Path)),
		Skipped: r.Skipped,
		Points:  len(tr.Points),
	}
	for i, e := range r.Path {
		out.Edges[i] = uint32(e)
	}
	if timed {
		out.Times = interpolateTimes(r.PointIdx, tr.Points)
	}
	return out, nil
}

// interpolateTimes builds the per-edge timestamp column: anchored
// edges take their observation's T, connector edges interpolate
// linearly (by path position) between the surrounding anchors.
// MatchTrace guarantees the first and last edges are anchored and
// anchor indexes are increasing, so every connector has anchors on
// both sides and the result is non-decreasing.
func interpolateTimes(ptIdx []int, pts []Point) []int64 {
	times := make([]int64, len(ptIdx))
	prev := 0 // index into ptIdx of the previous anchor
	for i, pi := range ptIdx {
		if pi < 0 {
			continue
		}
		times[i] = pts[pi].T
		if gap := i - prev; gap > 1 {
			t0, t1 := times[prev], times[i]
			for j := prev + 1; j < i; j++ {
				frac := float64(j-prev) / float64(gap)
				times[j] = t0 + int64(frac*float64(t1-t0))
			}
		}
		prev = i
	}
	return times
}

// Simulate fabricates a noisy timed trace along a known edge path —
// the synthetic stand-in for device traffic used by tests, the smoke
// script and the benchmark. Timestamps start at start and advance dt
// per point.
func Simulate(g *roadnet.Graph, path []roadnet.EdgeID, noise float64, start, dt int64, rng *rand.Rand) Trace {
	raw := mapmatch.SimulateTrace(g, path, noise, rng)
	tr := Trace{Points: make([]Point, len(raw))}
	for i, p := range raw {
		tr.Points[i] = Point{Lat: p.Y, Lon: p.X, T: start + int64(i)*dt}
	}
	return tr
}
