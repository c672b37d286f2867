package tveg

import (
	"math"

	"repro/internal/tvg"
)

// DCSSweep answers DCS(i, t) for one node at ascending times. It sits on
// a tvg.Sweep, which yields the links satisfying ρ_τ at t without a
// binary search per link, and adds per link:
//
//   - a segment cursor that skips the leading segments with End ≤ t
//     (no later query can fall inside them). Segments are sorted by
//     start, so the segment at the cursor is the one segmentAt's
//     first-containing scan finds, if any segment contains t;
//   - a cost per segment, computed on first use. linkMinCost depends on
//     t only through ρ_τ and the covering segment, so β and its cost
//     (math.Pow plus the model's inversion) run once per (link,
//     segment) instead of once per (link, point).
//
// At therefore returns bitwise what DCS returns. A time earlier than the
// previous query rewinds the cursors (the segment costs stay valid). A
// DCSSweep reads the graph as it was at construction; build a fresh one
// after an edit. It is not safe for concurrent use.
type DCSSweep struct {
	g    *Graph
	nbrs []tvg.NodeID
	segs [][]Segment // segs[k]: channel segments of row position k
	rho  *tvg.Sweep
	cur  []int32 // cur[k]: first segment of k whose End is after the previous query
	// cost[off[k]+m] is the cost of segment m of row position k, NaN
	// until computed.
	off   []int32
	cost  []float64
	pos   []int // scratch for rho.Present
	last  float64
	costs int
}

// NewDCSSweep returns a forward DCS sweep over node i under g's model
// and parameters.
func (g *Graph) NewDCSSweep(i tvg.NodeID) *DCSSweep {
	nbrs, slots := g.Row(i)
	s := &DCSSweep{
		g:    g,
		nbrs: nbrs,
		segs: make([][]Segment, len(slots)),
		rho:  g.NewSweep(i),
		cur:  make([]int32, len(slots)),
		off:  make([]int32, len(slots)),
		last: math.Inf(-1),
	}
	total := 0
	for k, sl := range slots {
		s.segs[k] = g.chans.at(sl)
		s.off[k] = int32(total)
		total += len(s.segs[k])
	}
	s.cost = make([]float64, total)
	for m := range s.cost {
		s.cost[m] = math.NaN()
	}
	return s
}

// At returns W_{i,t}^di, bitwise equal to DCS(i, t). Every call returns
// a fresh slice, which the caller owns.
func (s *DCSSweep) At(t float64) []CostLevel {
	if t < s.last {
		clear(s.cur)
	}
	s.last = t
	s.pos = s.rho.Present(t, s.pos[:0])
	var out []CostLevel
	for _, k := range s.pos {
		if w := s.linkCost(k, t); !math.IsInf(w, 1) {
			if out == nil {
				out = make([]CostLevel, 0, len(s.pos))
			}
			out = append(out, CostLevel{w, s.nbrs[k]})
		}
	}
	sortLevels(out)
	return out
}

// linkCost is linkMinCost for row position k, whose link satisfies ρ_τ
// at t.
func (s *DCSSweep) linkCost(k int, t float64) float64 {
	segs := s.segs[k]
	c := int(s.cur[k])
	for c < len(segs) && segs[c].Iv.End <= t {
		c++
	}
	s.cur[k] = int32(c)
	// segmentAt's first-containing scan ends at c: every earlier segment
	// ended by t, and every later one starts at or after segs[c] does,
	// so if segs[c] does not contain t, none does.
	if c == len(segs) || !segs[c].Iv.Contains(t) {
		return math.Inf(1)
	}
	w := &s.cost[int(s.off[k])+c]
	if math.IsNaN(*w) {
		*w = s.g.segmentCost(segs[c])
		s.costs++
	}
	return *w
}

// Costs returns how many segment costs (β → w evaluations) the sweep
// has computed.
func (s *DCSSweep) Costs() int { return s.costs }
