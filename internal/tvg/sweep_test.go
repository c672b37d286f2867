package tvg_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/interval"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// sweepGraph builds a random graph whose contact bounds sit on a
// half-unit grid, so interval ends, window ends (End−τ) and other
// intervals' starts coincide often. Every fourth contact is followed by
// one that touches it, which presence merges into one interval.
func sweepGraph(r *rand.Rand, n int, tau float64) *tvg.Graph {
	g := tvg.New(n, interval.Interval{Start: 0, End: 200}, tau)
	for c := 0; c < 4*n; c++ {
		i, j := tvg.NodeID(r.Intn(n)), tvg.NodeID(r.Intn(n))
		if i == j {
			continue
		}
		start := float64(r.Intn(300)) / 2
		end := start + float64(1+r.Intn(40))/2
		g.AddContact(i, j, interval.Interval{Start: start, End: end})
		if c%4 == 0 {
			g.AddContact(i, j, interval.Interval{Start: end, End: end + float64(1+r.Intn(10))})
		}
	}
	return g
}

// globalPoints returns every time at which some link's ρ_τ can change,
// the points just around each, and the window ends End−τ, ascending and
// deduplicated.
func globalPoints(g *tvg.Graph) []float64 {
	var pts []float64
	for i := 0; i < g.N(); i++ {
		for _, j := range g.EverNeighbors(tvg.NodeID(i)) {
			for _, iv := range g.Presence(tvg.NodeID(i), j).Intervals() {
				for _, x := range []float64{iv.Start, iv.End, iv.End - g.Tau(), (iv.Start + iv.End) / 2} {
					pts = append(pts, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
				}
			}
		}
	}
	slices.Sort(pts)
	return slices.Compact(pts)
}

// checkPresent compares one sweep answer with SlotRhoTau on every link.
func checkPresent(t *testing.T, g *tvg.Graph, i tvg.NodeID, sw *tvg.Sweep, x float64) {
	t.Helper()
	_, slots := g.Row(i)
	got := sw.Present(x, nil)
	slices.Sort(got)
	var want []int
	for k, s := range slots {
		if g.SlotRhoTau(s, x) {
			want = append(want, k)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("node %d at %v (τ=%g): sweep positions %v, SlotRhoTau %v", i, x, g.Tau(), got, want)
	}
}

func TestSweepMatchesSlotRhoTau(t *testing.T) {
	for _, tau := range []float64{0, 0.5, 3} {
		for seed := int64(0); seed < 12; seed++ {
			t.Run(fmt.Sprintf("tau=%g/seed=%d", tau, seed), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				g := sweepGraph(r, 8, tau)
				pts := globalPoints(g)
				for i := 0; i < g.N(); i++ {
					ni := tvg.NodeID(i)
					sw := g.NewSweep(ni)
					for _, x := range pts {
						checkPresent(t, g, ni, sw, x)
						checkPresent(t, g, ni, sw, x) // a repeated time
					}
					// Descending times: every query steps back and rebuilds.
					for k := len(pts) - 1; k >= 0; k -= 3 {
						checkPresent(t, g, ni, sw, pts[k])
					}
					// Random order mixes forward runs with resets.
					for _, k := range r.Perm(len(pts))[:len(pts)/2] {
						checkPresent(t, g, ni, sw, pts[k])
					}
				}
			})
		}
	}
}

func TestSweepWindowEndingAtIntervalEnd(t *testing.T) {
	g := tvg.New(3, interval.Interval{Start: 0, End: 100}, 2)
	g.AddContact(0, 1, interval.Interval{Start: 10, End: 20})
	g.AddContact(0, 2, interval.Interval{Start: 18, End: 30})
	sw := g.NewSweep(0)
	nbrs, _ := g.Row(0)
	for _, c := range []struct {
		t    float64
		want []tvg.NodeID
	}{
		{10, []tvg.NodeID{1}},
		{17.5, []tvg.NodeID{1}},
		{18, []tvg.NodeID{2}}, // [18, 20] reaches (0,1)'s excluded end; (0,2) starts at 18
		{18, []tvg.NodeID{2}}, // a repeated time
		{27.5, []tvg.NodeID{2}},
		{28, nil}, // the window [28, 30] ends exactly at (0,2)'s End
		{30, nil},
		{17.5, []tvg.NodeID{1}}, // a step back in time
	} {
		var got []tvg.NodeID
		for _, k := range sw.Present(c.t, nil) {
			got = append(got, nbrs[k])
		}
		slices.Sort(got)
		if !slices.Equal(got, c.want) {
			t.Errorf("neighbours of 0 at %g = %v, want %v", c.t, got, c.want)
		}
		checkPresent(t, g, 0, g.NewSweep(0), c.t)
	}
	// ρ_τ at 18 is false only for τ > 0: the τ = 0 test is plain Contains.
	g0 := tvg.New(3, interval.Interval{Start: 0, End: 100}, 0)
	g0.AddContact(0, 1, interval.Interval{Start: 10, End: 20})
	if got := g0.NewSweep(0).Present(19.5, nil); len(got) != 1 {
		t.Errorf("τ=0: present at 19.5 = %v, want one link", got)
	}
	if got := g0.NewSweep(0).Present(20, nil); len(got) != 0 {
		t.Errorf("τ=0: present at the interval end = %v, want none", got)
	}
}

// TestSweepFreshAfterEdit builds a new sweep after each kind of edit and
// checks it against the edited graph at every point.
func TestSweepFreshAfterEdit(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		// Node 6 has no contacts until the edits, which all hit (0, 6).
		g := tveg.New(7, interval.Interval{Start: 0, End: 200}, 1, tveg.DefaultParams(), tveg.Static)
		for c := 0; c < 20; c++ {
			i, j := tvg.NodeID(r.Intn(6)), tvg.NodeID(r.Intn(6))
			if i == j {
				continue
			}
			start := float64(r.Intn(150))
			g.AddContact(i, j, interval.Interval{Start: start, End: start + float64(2+r.Intn(30))}, 1+float64(r.Intn(4)))
		}
		check := func(what string) {
			pts := globalPoints(g.Graph)
			for i := 0; i < g.N(); i++ {
				sw := g.NewSweep(tvg.NodeID(i))
				for _, x := range pts {
					checkPresent(t, g.Graph, tvg.NodeID(i), sw, x)
				}
			}
			if t.Failed() {
				t.Fatalf("seed %d: after %s", seed, what)
			}
		}
		check("build")
		g.AddContact(0, 6, interval.Interval{Start: 100, End: 130}, 2)
		check("AddContact")
		if !g.RemoveContact(0, 6, interval.Interval{Start: 110, End: 115}) {
			t.Fatalf("seed %d: RemoveContact changed nothing", seed)
		}
		check("RemoveContact")
		if ok, err := g.RetimeChannel(0, 6, interval.Interval{Start: 115, End: 130}, interval.Interval{Start: 170, End: 190}); err != nil || !ok {
			t.Fatalf("seed %d: RetimeChannel = %v, %v", seed, ok, err)
		}
		check("RetimeChannel")
	}
}
