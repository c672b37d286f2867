package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dts"
	"repro/internal/interval"
	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// The reference below is the per-round selection the baselines used
// before the cost-set table: every round re-enumerates each informed
// relay's window and re-queries DCS at every point, GREED keeps the
// betterThan-best level per point with its own newNodes copy, and RAND
// takes each relay's earliest productive point. The table must pick
// exactly the same transmissions.

type refCandidate struct {
	relay    tvg.NodeID
	t        float64
	w        float64
	newNodes []tvg.NodeID
}

func (c *refCandidate) betterThan(o *refCandidate) bool {
	if o == nil {
		return true
	}
	if len(c.newNodes) != len(o.newNodes) {
		return len(c.newNodes) > len(o.newNodes)
	}
	if c.t != o.t {
		return c.t < o.t
	}
	if c.w != o.w {
		return c.w < o.w
	}
	return c.relay < o.relay
}

// transmissionTimes enumerates the candidate transmission times of node i
// within [from, deadline-τ], drawn from its DTS points.
func transmissionTimes(view *tveg.Graph, pts [][]float64, i tvg.NodeID, from, deadline float64) []float64 {
	tau := view.Tau()
	var out []float64
	for _, t := range pts[i] {
		if t >= from-schedule.TimeTol && t+tau <= deadline+schedule.TimeTol {
			out = append(out, t)
		}
	}
	return out
}

// bestLevelCandidate finds, for relay i at time t, the DCS level
// maximizing newly informed nodes with minimal sufficient cost.
func bestLevelCandidate(view *tveg.Graph, inf *informedSet, i tvg.NodeID, t float64) *refCandidate {
	levels := view.DCS(i, t)
	if len(levels) == 0 {
		return nil
	}
	var best *refCandidate
	var covered []tvg.NodeID
	for _, lvl := range levels {
		if !inf.informed(lvl.Node) {
			covered = append(covered, lvl.Node)
			cand := &refCandidate{relay: i, t: t, w: lvl.W,
				newNodes: append([]tvg.NodeID(nil), covered...)}
			if cand.betterThan(best) {
				best = cand
			}
		}
	}
	return best
}

// minimalNewCoverage returns the cheapest DCS level of (i, t) that
// informs at least one new node, or nil when none does.
func minimalNewCoverage(view *tveg.Graph, inf *informedSet, i tvg.NodeID, t float64) *refCandidate {
	for _, lvl := range view.DCS(i, t) {
		if !inf.informed(lvl.Node) {
			return &refCandidate{relay: i, t: t, w: lvl.W, newNodes: []tvg.NodeID{lvl.Node}}
		}
	}
	return nil
}

func refFinish(view *tveg.Graph, s schedule.Schedule, inf *informedSet, src tvg.NodeID, t0 float64) (schedule.Schedule, error) {
	s = causalSort(view, s, src, t0)
	if un := inf.uncovered(); len(un) > 0 {
		return s, &IncompleteError{Uncovered: un}
	}
	return s, nil
}

func refGreedyBackbone(view *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{})
	if err != nil {
		return nil, err
	}
	inf := newInformedSet(view.N(), src, t0)
	var s schedule.Schedule
	for !inf.allInformed() {
		var best *refCandidate
		for i := 0; i < view.N(); i++ {
			ni := tvg.NodeID(i)
			if !inf.informed(ni) {
				continue
			}
			for _, t := range transmissionTimes(view, d.Points, ni, inf.time(ni), deadline) {
				if c := bestLevelCandidate(view, inf, ni, t); c != nil && c.betterThan(best) {
					best = c
				}
			}
		}
		if best == nil {
			break
		}
		s = append(s, schedule.Transmission{Relay: best.relay, T: best.t, W: best.w})
		for _, j := range best.newNodes {
			inf.mark(j, best.t+view.Tau())
		}
	}
	return refFinish(view, s, inf, src, t0)
}

func refRandomBackbone(view *tveg.Graph, src tvg.NodeID, t0, deadline float64, seed int64) (schedule.Schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	d, err := dts.Build(view.Graph, t0, deadline, dts.Options{})
	if err != nil {
		return nil, err
	}
	inf := newInformedSet(view.N(), src, t0)
	var s schedule.Schedule
	for !inf.allInformed() {
		var cands []*refCandidate
		for i := 0; i < view.N(); i++ {
			ni := tvg.NodeID(i)
			if !inf.informed(ni) {
				continue
			}
			for _, t := range transmissionTimes(view, d.Points, ni, inf.time(ni), deadline) {
				if c := minimalNewCoverage(view, inf, ni, t); c != nil {
					cands = append(cands, c)
					break
				}
			}
		}
		if len(cands) == 0 {
			break
		}
		pick := cands[rng.Intn(len(cands))]
		s = append(s, schedule.Transmission{Relay: pick.relay, T: pick.t, W: pick.w})
		for _, j := range pick.newNodes {
			inf.mark(j, pick.t+view.Tau())
		}
	}
	return refFinish(view, s, inf, src, t0)
}

type tableContact struct {
	i, j tvg.NodeID
	iv   interval.Interval
}

// tableTestGraph builds a random TVEG whose distances come from a small
// set, so equal-W levels (DCS ties) are common. Node n-1 gets no contact
// at all and is unreachable; in half the graphs node n-2 only meets
// node 0 at the very end of the span. It returns the contacts added.
func tableTestGraph(r *rand.Rand, n int, tau float64, m tveg.Model) (*tveg.Graph, []tableContact) {
	const horizon = 1000
	dists := []float64{4, 4, 9, 9, 15, 1 + r.Float64()*20}
	g := tveg.New(n, iv(0, horizon), tau, tveg.DefaultParams(), m)
	var added []tableContact
	for c := 0; c < 5*n; c++ {
		i, j := tvg.NodeID(r.Intn(n-1)), tvg.NodeID(r.Intn(n-1))
		if i == j {
			continue
		}
		// Starts on a coarse grid so contacts (and DTS points) coincide.
		s := float64(r.Intn(60)) * 10
		c := tableContact{i, j, iv(s, s+20+float64(r.Intn(10))*10)}
		g.AddContact(c.i, c.j, c.iv, dists[r.Intn(len(dists))])
		added = append(added, c)
	}
	if r.Intn(2) == 0 {
		g.AddContact(0, tvg.NodeID(n-2), iv(horizon-50, horizon), 6)
	}
	return g.EnableCostCache(), added
}

// planAll runs the four baselines on g through the planners and through
// the reference, returning one error message per mismatch.
func planAll(g *tveg.Graph, src tvg.NodeID, t0, deadline float64, seeds []int64) []string {
	var bad []string
	check := func(name string, got schedule.Schedule, gotErr error, want schedule.Schedule, wantErr error) {
		if msg := diffPlans(got, gotErr, want, wantErr); msg != "" {
			bad = append(bad, name+": "+msg)
		}
	}
	static := plannerView(g, false)
	fading := plannerView(g, true)

	got, gotErr := Greedy{}.Schedule(g, src, t0, deadline)
	want, wantErr := refGreedyBackbone(static, src, t0, deadline)
	check("GREED", got, gotErr, want, wantErr)

	got, gotErr = FRGreedy{}.Schedule(g, src, t0, deadline)
	bb, bbErr := refGreedyBackbone(fading, src, t0, deadline)
	want, wantErr = allocateEnergy(g, bb, src, nil, bbErr, AllocGreedy, 0, nil, nil)
	check("FR-GREED", got, gotErr, want, wantErr)

	for _, seed := range seeds {
		got, gotErr = Random{Seed: seed}.Schedule(g, src, t0, deadline)
		want, wantErr = refRandomBackbone(static, src, t0, deadline, seed)
		check(fmt.Sprintf("RAND seed %d", seed), got, gotErr, want, wantErr)

		got, gotErr = FRRandom{Seed: seed}.Schedule(g, src, t0, deadline)
		bb, bbErr = refRandomBackbone(fading, src, t0, deadline, seed)
		want, wantErr = allocateEnergy(g, bb, src, nil, bbErr, AllocGreedy, 0, nil, nil)
		check(fmt.Sprintf("FR-RAND seed %d", seed), got, gotErr, want, wantErr)
	}
	return bad
}

// diffPlans compares two plans bitwise: every transmission's relay,
// time and cost bits, plus the uncovered set of an IncompleteError.
func diffPlans(got schedule.Schedule, gotErr error, want schedule.Schedule, wantErr error) string {
	uncovered := func(err error) ([]tvg.NodeID, bool) {
		var ie *IncompleteError
		if errors.As(err, &ie) {
			return ie.Uncovered, true
		}
		return nil, err == nil
	}
	gu, gok := uncovered(gotErr)
	wu, wok := uncovered(wantErr)
	if !gok || !wok {
		return fmt.Sprintf("unexpected error: got %v, want %v", gotErr, wantErr)
	}
	if !slices.Equal(gu, wu) {
		return fmt.Sprintf("uncovered %v, want %v", gu, wu)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d transmissions, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for k := range got {
		a, b := got[k], want[k]
		if a.Relay != b.Relay || math.Float64bits(a.T) != math.Float64bits(b.T) || math.Float64bits(a.W) != math.Float64bits(b.W) {
			return fmt.Sprintf("transmission %d = %+v, want %+v", k, a, b)
		}
	}
	return ""
}

// TestCostTableMatchesPerRoundSelection is the differential test of the
// plan-local cost-set table: GREED, RAND, FR-GREED and FR-RAND must plan
// bit-identical schedules and uncovered sets to the per-round reference
// on random TVEGs (Static and Rayleigh, τ = 0 and τ > 0, DCS ties,
// unreachable nodes), including after AddContact/RemoveContact edits
// between two plans on the same graph.
func TestCostTableMatchesPerRoundSelection(t *testing.T) {
	seeds := []int64{1, 2, 7}
	for gs := int64(0); gs < 60; gs++ {
		r := rand.New(rand.NewSource(gs))
		model := []tveg.Model{tveg.Static, tveg.RayleighFading}[gs%2]
		tau := []float64{0, 0, 3, 10}[gs%4]
		n := 7 + r.Intn(6)
		g, contacts := tableTestGraph(r, n, tau, model)
		src := tvg.NodeID(r.Intn(n - 2))
		t0 := float64(r.Intn(30)) * 10
		deadline := math.Min(t0+300+float64(r.Intn(70))*10, 1000)
		name := fmt.Sprintf("graph %d (%v, τ=%g, n=%d, src %d, [%g, %g])", gs, model, tau, n, src, t0, deadline)
		for _, msg := range planAll(g, src, t0, deadline, seeds) {
			t.Errorf("%s: %s", name, msg)
		}
		// Edit the live graph and plan again: the cost cache and the DTS
		// memo see a new version, the table must still agree.
		a, b := tvg.NodeID(r.Intn(n-1)), tvg.NodeID(r.Intn(n-1))
		if a == b {
			b = (a + 1) % tvg.NodeID(n-1)
		}
		s := float64(r.Intn(60)) * 10
		g.AddContact(a, b, iv(s, s+40), 9)
		if c := contacts[r.Intn(len(contacts))]; !g.RemoveContact(c.i, c.j, c.iv) {
			t.Fatalf("%s: removing %+v changed nothing", name, c)
		}
		for _, msg := range planAll(g, src, t0, deadline, seeds) {
			t.Errorf("%s after edits: %s", name, msg)
		}
	}
}

// TestCostTableFillsEachPointOnce pins core.dcs.fills: a relay's point is
// filled at most once per plan, so the counter never exceeds the
// number of DTS points, and it is the same on every run.
func TestCostTableFillsEachPointOnce(t *testing.T) {
	g, _ := tableTestGraph(rand.New(rand.NewSource(3)), 10, 0, tveg.Static)
	d, err := dts.Build(g.Graph, 0, 800, dts.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func(*obs.Recorder) Scheduler{
		func(rec *obs.Recorder) Scheduler { return Greedy{Obs: rec} },
		func(rec *obs.Recorder) Scheduler { return Random{Seed: 5, Obs: rec} },
	} {
		fills := func() int64 {
			rec := obs.New()
			if _, err := mk(rec).Schedule(g, 0, 0, 800); onlyIncomplete(err) != nil {
				t.Fatal(err)
			}
			return rec.Counter("core.dcs.fills").Value()
		}
		name := mk(nil).Name()
		n := fills()
		if n <= 0 || n > int64(d.TotalPoints()) {
			t.Errorf("%s: core.dcs.fills = %d, want in [1, %d]", name, n, d.TotalPoints())
		}
		if again := fills(); again != n {
			t.Errorf("%s: core.dcs.fills = %d then %d, want deterministic", name, n, again)
		}
	}
}
