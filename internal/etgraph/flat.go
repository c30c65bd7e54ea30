package etgraph

import (
	"fmt"

	"cinct/internal/bitvec"
	"cinct/internal/flat"
)

// Flat (v3) form: the CSR representation written as three packed
// arrays. ViewFlat validates the row structure Decode and Z index by
// (monotone cumulative degrees, in-alphabet targets) so label
// arithmetic on a corrupt file stays inside the arrays.

// AppendFlat writes the graph.
func (g *Graph) AppendFlat(w *flat.Writer) {
	w.U64(uint64(g.sigma))
	w.U64(uint64(g.edges))
	w.U64(uint64(g.maxDeg))
	g.starts.AppendFlat(w)
	g.tos.AppendFlat(w)
	g.zs.AppendFlat(w)
}

// ViewFlat wraps a flat graph in place.
func ViewFlat(c *flat.Cursor) (*Graph, error) {
	sigma := c.Int()
	edges := c.Int()
	maxDeg := c.Int()
	if err := c.Err(); err != nil {
		return nil, err
	}
	starts, err := bitvec.ViewPackedInts(c)
	if err != nil {
		return nil, err
	}
	tos, err := bitvec.ViewPackedInts(c)
	if err != nil {
		return nil, err
	}
	zs, err := bitvec.ViewPackedInts(c)
	if err != nil {
		return nil, err
	}
	if starts.Len() != sigma+1 || tos.Len() != edges || zs.Len() != edges {
		return nil, fmt.Errorf("%w: ET-graph arrays (sigma=%d edges=%d starts=%d tos=%d zs=%d)",
			flat.ErrCorrupt, sigma, edges, starts.Len(), tos.Len(), zs.Len())
	}
	gotMax := 0
	prev := uint64(0)
	for wp := 0; wp <= sigma; wp++ {
		s := starts.Get(wp)
		if s < prev || s > uint64(edges) {
			return nil, fmt.Errorf("%w: ET-graph cumulative degree row %d", flat.ErrCorrupt, wp)
		}
		if wp > 0 && int(s-prev) > gotMax {
			gotMax = int(s - prev)
		}
		prev = s
	}
	if starts.Get(sigma) != uint64(edges) || gotMax != maxDeg {
		return nil, fmt.Errorf("%w: ET-graph degree totals (edges=%d maxDeg=%d got %d/%d)",
			flat.ErrCorrupt, edges, maxDeg, starts.Get(sigma), gotMax)
	}
	for i := 0; i < edges; i++ {
		if tos.Get(i) >= uint64(sigma) {
			return nil, fmt.Errorf("%w: ET-graph edge %d targets symbol %d outside alphabet %d",
				flat.ErrCorrupt, i, tos.Get(i), sigma)
		}
	}
	return &Graph{sigma: sigma, edges: edges, maxDeg: maxDeg,
		starts: starts, tos: tos, zs: zs}, nil
}
