package tveg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tvg"
)

// sameLevels reports whether two cost sets are bitwise equal, including
// whether each is nil.
func sameLevels(a, b []CostLevel) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Node != b[k].Node || math.Float64bits(a[k].W) != math.Float64bits(b[k].W) {
			return false
		}
	}
	return true
}

// sweepTVEG builds a random TVEG on a half-unit grid. Pairs get
// overlapping contacts at other distances (some with an equal start, so
// segment order decides which one covers a time) and touching ones.
func sweepTVEG(r *rand.Rand, n int, tau float64, params Params, model Model) *Graph {
	g := New(n, iv(0, 200), tau, params, model)
	dists := []float64{1, 2, 3, 5, 8}
	for c := 0; c < 4*n; c++ {
		i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		start := float64(r.Intn(300)) / 2
		end := start + float64(1+r.Intn(40))/2
		g.AddContact(i, j, iv(start, end), dists[r.Intn(len(dists))])
		switch c % 4 {
		case 0: // overlapping, later start
			g.AddContact(i, j, iv(start+float64(r.Intn(8))/2, end+5), dists[r.Intn(len(dists))])
		case 1: // overlapping, equal start
			g.AddContact(i, j, iv(start, end+float64(r.Intn(6))), dists[r.Intn(len(dists))])
		case 2: // touching
			g.AddContact(i, j, iv(end, end+float64(1+r.Intn(10))), dists[r.Intn(len(dists))])
		}
	}
	return g
}

// segmentPoints returns every segment bound, window end (End−τ) and
// midpoint of the graph, with their floating-point neighbours, ascending.
func segmentPoints(g *Graph) []float64 {
	var pts []float64
	for i := 0; i < g.N(); i++ {
		for _, j := range g.EverNeighbors(tvg.NodeID(i)) {
			for _, seg := range g.Segments(tvg.NodeID(i), j) {
				for _, x := range []float64{seg.Iv.Start, seg.Iv.End, seg.Iv.End - g.Tau(), (seg.Iv.Start + seg.Iv.End) / 2} {
					pts = append(pts, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
				}
			}
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

func checkAt(t *testing.T, g *Graph, i tvg.NodeID, sw *DCSSweep, x float64) {
	t.Helper()
	if got, want := sw.At(x), g.DCS(i, x); !sameLevels(got, want) {
		t.Fatalf("%v τ=%g: node %d at %v: sweep %v, DCS %v", g.Model, g.Tau(), i, x, got, want)
	}
}

// TestDCSSweepMatchesDCS compares the sweep with the point query
// bitwise at every segment point, ascending (each time twice), then
// descending and in random order, under every channel model, with and
// without the cost cache, and with a WMax that cuts off the far links.
func TestDCSSweepMatchesDCS(t *testing.T) {
	for _, model := range []Model{Static, RayleighFading, RicianFading, NakagamiFading} {
		for _, tau := range []float64{0, 2} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%v/tau=%g/seed=%d", model, tau, seed), func(t *testing.T) {
					r := rand.New(rand.NewSource(seed))
					params := DefaultParams()
					if seed%2 == 1 {
						// Above WMax: distance 8 under every model, 5 under
						// the fading ones.
						params.WMax = params.NoiseGamma() * 30
					}
					// The uncached Rician inversion is slow: one small
					// uncached graph covers that path.
					cached := seed >= 2 || model == RicianFading && seed == 1
					n := 7
					if model == RicianFading && !cached {
						n = 4
					}
					g := sweepTVEG(r, n, tau, params, model)
					if cached {
						g.EnableCostCache()
					}
					pts := segmentPoints(g)
					for i := 0; i < g.N(); i++ {
						ni := tvg.NodeID(i)
						sw := g.NewDCSSweep(ni)
						for _, x := range pts {
							checkAt(t, g, ni, sw, x)
							checkAt(t, g, ni, sw, x)
						}
						segs := 0
						for _, j := range g.EverNeighbors(ni) {
							segs += len(g.Segments(ni, j))
						}
						if sw.Costs() > segs {
							t.Fatalf("node %d: %d costs computed for %d segments", i, sw.Costs(), segs)
						}
						for k := len(pts) - 1; k >= 0; k -= 5 {
							checkAt(t, g, ni, sw, pts[k])
						}
						for _, k := range r.Perm(len(pts))[:len(pts)/4] {
							checkAt(t, g, ni, sw, pts[k])
						}
					}
				})
			}
		}
	}
}

// TestDCSSweepSegmentOrder pins the covering segment when contacts of
// one pair overlap: the first segment in start order (insertion order
// among equal starts) wins, and a segment above WMax drops the link.
func TestDCSSweepSegmentOrder(t *testing.T) {
	params := DefaultParams()
	params.WMax = params.NoiseGamma() * 50 // distance 8 (cost 64) is out
	g := New(3, iv(0, 100), 0, params, Static)
	g.AddContact(0, 1, iv(0, 20), 5)
	g.AddContact(0, 1, iv(10, 30), 2)
	g.AddContact(0, 1, iv(40, 50), 3)
	g.AddContact(0, 1, iv(40, 60), 1)
	g.AddContact(0, 2, iv(0, 30), 8)
	g.AddContact(0, 2, iv(30, 60), 4)
	w := func(d float64) float64 { return params.NoiseGamma() * math.Pow(d, params.Alpha) }
	sw := g.NewDCSSweep(0)
	for _, c := range []struct {
		t    float64
		want []CostLevel
	}{
		{5, []CostLevel{{w(5), 1}}},
		{15, []CostLevel{{w(5), 1}}}, // [0,20) precedes [10,30)
		{25, []CostLevel{{w(2), 1}}},
		{30, []CostLevel{{w(4), 2}}},
		{45, []CostLevel{{w(3), 1}, {w(4), 2}}}, // equal starts: insertion order
		{55, []CostLevel{{w(1), 1}, {w(4), 2}}},
		{60, nil},
		{15, []CostLevel{{w(5), 1}}}, // a step back in time
	} {
		got := sw.At(c.t)
		if !sameLevels(got, c.want) {
			t.Errorf("At(%g) = %v, want %v", c.t, got, c.want)
		}
		if want := g.DCS(0, c.t); !sameLevels(got, want) {
			t.Errorf("At(%g) = %v, DCS %v", c.t, got, want)
		}
	}
	if got := sw.Costs(); got != 6 {
		t.Errorf("Costs() = %d, want 6 (one per segment used, the one above WMax included)", got)
	}
}
