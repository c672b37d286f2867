// Package core implements the paper's broadcast schedulers (§VI–§VII):
//
//   - EEDCB — the energy-efficient delay-constrained broadcast of §VI-A:
//     DTS → auxiliary graph → directed Steiner approximation.
//   - FR-EEDCB — the fading-resistant variant of §VI-B: EEDCB backbone
//     on fading-aware edge weights, then NLP energy allocation.
//   - GREED / FR-GREED — the coverage-greedy baselines of §VII.
//   - RAND / FR-RAND — the random-relay baselines of §VII.
//
// Every scheduler implements the Scheduler interface and is deterministic
// given its construction parameters (RAND takes an explicit seed).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// Scheduler plans a broadcast relay schedule on a TVEG for a broadcast
// from src released at t0 that must finish by the absolute deadline.
type Scheduler interface {
	// Name returns the algorithm's display name as used in §VII.
	Name() string
	// Schedule plans the broadcast. When some nodes cannot possibly be
	// reached within the window, implementations return the best-effort
	// schedule covering the rest together with an *IncompleteError.
	Schedule(g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error)
}

// ContextScheduler is a Scheduler whose planning honors context
// cancellation and deadlines: ScheduleCtx polls cancellation checkpoints
// at phase boundaries and inside every unbounded loop, returning
// cancel.ErrCancelled / cancel.ErrBudgetExceeded (wrapped) promptly when
// the context dies. A completed ScheduleCtx is byte-identical to
// Schedule — the checkpoints never influence planning decisions. All six
// planners in this package implement it.
type ContextScheduler interface {
	Scheduler
	ScheduleCtx(ctx context.Context, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error)
}

// ScheduleWithContext plans under ctx when s supports cancellation and
// falls back to the plain uncancellable Schedule otherwise. A
// context.Background() ctx takes the exact pre-cancellation code path
// either way.
func ScheduleWithContext(ctx context.Context, s Scheduler, g *tveg.Graph, src tvg.NodeID, t0, deadline float64) (schedule.Schedule, error) {
	if cs, ok := s.(ContextScheduler); ok {
		return cs.ScheduleCtx(ctx, g, src, t0, deadline)
	}
	return s.Schedule(g, src, t0, deadline)
}

// IncompleteError reports nodes that the planner could not cover within
// the delay window. The accompanying schedule is still valid for the
// covered nodes — the delivery-ratio experiments rely on that.
type IncompleteError struct {
	Uncovered []tvg.NodeID
}

func (e *IncompleteError) Error() string {
	return fmt.Sprintf("core: %d node(s) unreachable within the delay window: %v",
		len(e.Uncovered), e.Uncovered)
}

// plannerView returns the graph the algorithm plans on: fading-aware
// algorithms see the true model, the rest assume a static channel.
func plannerView(g *tveg.Graph, fadingAware bool) *tveg.Graph {
	if fadingAware || g.Model == tveg.Static {
		return g
	}
	return g.WithModel(tveg.Static)
}

// informedSet tracks deterministic informed times during backbone
// construction (the planner's view: a transmission at sufficient cost
// informs its targets with certainty).
type informedSet struct {
	at []float64 // informed time per node, +Inf when uninformed
}

func newInformedSet(n int, src tvg.NodeID, t0 float64) *informedSet {
	s := &informedSet{at: make([]float64, n)}
	for i := range s.at {
		s.at[i] = math.Inf(1)
	}
	s.at[src] = t0
	return s
}

func (s *informedSet) informed(i tvg.NodeID) bool   { return !math.IsInf(s.at[i], 1) }
func (s *informedSet) time(i tvg.NodeID) float64    { return s.at[i] }
func (s *informedSet) mark(i tvg.NodeID, t float64) { s.at[i] = math.Min(s.at[i], t) }

func (s *informedSet) allInformed() bool {
	for _, t := range s.at {
		if math.IsInf(t, 1) {
			return false
		}
	}
	return true
}

func (s *informedSet) uncovered() []tvg.NodeID {
	var out []tvg.NodeID
	for i, t := range s.at {
		if math.IsInf(t, 1) {
			out = append(out, tvg.NodeID(i))
		}
	}
	return out
}

// candidate is one scored transmission: relay transmits at t, its k-th
// table point, with cost w, newly informing n nodes. The zero value
// (n = 0) is "no candidate".
type candidate struct {
	relay tvg.NodeID
	k, n  int
	t, w  float64
}

// betterThan orders candidates: more coverage first, then earlier, then
// cheaper, then smaller relay id for determinism.
func (c candidate) betterThan(o candidate) bool {
	if c.n != o.n {
		return c.n > o.n
	}
	//tmedbvet:ignore floateq total-order comparator: candidate selection must break ties bitwise or the greedy pick becomes run-dependent
	if c.t != o.t {
		return c.t < o.t
	}
	//tmedbvet:ignore floateq total-order comparator (see above): exact cost ordering is the determinism contract
	if c.w != o.w {
		return c.w < o.w
	}
	return c.relay < o.relay
}

// costTable is one baseline plan's table of (relay, DTS point) cost
// sets. pts[i] holds node i's DTS points that fit the window, first
// t+τ ≤ deadline+TimeTol and, once i is informed, t ≥ its informed
// time − TimeTol; dcs[i][k] is W_{i,t}^di at pts[i][k], filled the
// first time a round touches it and read by index afterwards. Fills of
// a relay run at ascending points, so each relay's sets come from one
// forward DCSSweep, created at its first fill.
type costTable struct {
	view   *tveg.Graph
	pts    [][]float64
	dcs    [][][]tveg.CostLevel
	sweeps []*tveg.DCSSweep
	next   []int // next[i]: i's first point that may inform someone new; -1 until i is informed
	fills  int
}

func newCostTable(view *tveg.Graph, points [][]float64, deadline float64) *costTable {
	c := &costTable{view: view, pts: make([][]float64, len(points)),
		dcs: make([][][]tveg.CostLevel, len(points)), sweeps: make([]*tveg.DCSSweep, len(points)),
		next: make([]int, len(points))}
	tau := view.Tau()
	for i, p := range points {
		// Points[i] is sorted, so the points that fit are a prefix.
		c.pts[i] = p[:sort.Search(len(p), func(k int) bool { return p[k]+tau > deadline+schedule.TimeTol })]
		c.next[i] = -1
	}
	return c
}

// levels returns relay i's cost set at its k-th point. Rounds walk a
// relay's points in order from its cursor, so the filled sets are
// always a prefix of the row and k is at most one past it.
func (c *costTable) levels(i tvg.NodeID, k int) []tveg.CostLevel {
	if k == len(c.dcs[i]) {
		if c.sweeps[i] == nil {
			c.sweeps[i] = c.view.NewDCSSweep(i)
		}
		c.dcs[i] = append(c.dcs[i], c.sweeps[i].At(c.pts[i][k]))
		c.fills++
	}
	return c.dcs[i][k]
}

// record adds the table's work counters to rec: core.dcs.fills (cost
// sets filled) and core.dcs.costs (segment costs the sweeps computed).
func (c *costTable) record(rec *obs.Recorder) {
	costs := 0
	for _, sw := range c.sweeps {
		if sw != nil {
			costs += sw.Costs()
		}
	}
	rec.Counter("core.dcs.fills").Add(int64(c.fills))
	rec.Counter("core.dcs.costs").Add(int64(costs))
}

// advance moves informed relay i's cursor to its first point with an
// uninformed level and returns that point and level; ok is false when
// no point is left. A point passed over never informs anyone new
// again, because the informed set only grows.
func (c *costTable) advance(i tvg.NodeID, inf *informedSet) (k int, lvl tveg.CostLevel, ok bool) {
	if c.next[i] < 0 {
		c.pts[i] = c.pts[i][sort.SearchFloat64s(c.pts[i], inf.time(i)-schedule.TimeTol):]
		c.next[i] = 0
	}
	for k = c.next[i]; k < len(c.pts[i]); k++ {
		for _, lvl = range c.levels(i, k) {
			if !inf.informed(lvl.Node) {
				c.next[i] = k
				return k, lvl, true
			}
		}
	}
	c.next[i] = k
	return k, tveg.CostLevel{}, false
}

// sortNodeIDs sorts node ids ascending (determinism helper).
func sortNodeIDs(xs []tvg.NodeID) {
	sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
}
