package tvg

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/interval"
)

// Sweep answers ρ_τ for every link of one node at ascending times. Its
// event list holds one entry per presence interval still open at the
// first query, sorted by interval start. A query at t joins the
// intervals that started at or before t and drops those whose End is
// at or before t, so the active list holds exactly the intervals with
// Start ≤ t < End — at most one per link, because a link's presence
// intervals are disjoint and non-touching.
//
// Exactness: for a link with an active interval, that interval is the
// first of the link with End > t (every earlier one ends before its
// Start ≤ t), which is the interval SlotRhoTau's binary search picks; a
// link without one has its pick start after t (or has no pick), and
// ContainsWindow is false there. Present applies the same
// Interval.ContainsWindow(t, τ) to the same interval, so its answers
// are bitwise those of SlotRhoTau at every t.
//
// Each query costs O(active links + intervals joined) instead of one
// binary search per link. A time earlier than the previous query
// rebuilds the event list from that time: slow, never wrong. A Sweep
// reads the graph's presence as it was at construction and must not be
// used across an edit; build a fresh one. It is not safe for
// concurrent use.
type Sweep struct {
	tau    float64
	ivs    [][]interval.Interval // ivs[k]: presence intervals of row position k
	events []sweepEvent          // intervals open at the build time, by start
	next   int                   // first event not yet joined
	active []sweepEvent          // joined intervals with End > last
	last   float64               // time of the previous query
}

// sweepEvent is one presence interval and the row position of its link.
type sweepEvent struct {
	iv  interval.Interval
	pos int
}

// NewSweep returns a forward sweep over node i's links. Row positions
// in its answers index the slices Row(i) returns.
func (g *Graph) NewSweep(i NodeID) *Sweep {
	g.checkNode(i)
	slots := g.rows[i].slots
	s := &Sweep{tau: g.tau, ivs: make([][]interval.Interval, len(slots)), last: math.Inf(1)}
	total := 0
	for k, sl := range slots {
		s.ivs[k] = g.presence[sl].Intervals()
		total += len(s.ivs[k])
	}
	s.events = make([]sweepEvent, 0, total)
	return s
}

// build resets the sweep to time t: the event list holds every interval
// with End > t, the only ones a query at t or later can see.
func (s *Sweep) build(t float64) {
	s.events = s.events[:0]
	for k, ivs := range s.ivs {
		m := sort.Search(len(ivs), func(m int) bool { return ivs[m].End > t })
		for _, iv := range ivs[m:] {
			s.events = append(s.events, sweepEvent{iv, k})
		}
	}
	slices.SortFunc(s.events, func(a, b sweepEvent) int {
		if a.iv.Start != b.iv.Start {
			if a.iv.Start < b.iv.Start {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.pos, b.pos)
	})
	s.next = 0
	s.active = s.active[:0]
}

// Present appends to dst the row positions whose link satisfies ρ_τ at
// t and returns the extended slice. Positions come in join order, not
// sorted.
func (s *Sweep) Present(t float64, dst []int) []int {
	if t < s.last {
		s.build(t) // the first query, or a step back in time
	}
	s.last = t
	for s.next < len(s.events) && s.events[s.next].iv.Start <= t {
		s.active = append(s.active, s.events[s.next])
		s.next++
	}
	keep := s.active[:0]
	for _, e := range s.active {
		if e.iv.End <= t {
			continue // ended: no later query can see it
		}
		keep = append(keep, e)
		if e.iv.ContainsWindow(t, s.tau) {
			dst = append(dst, e.pos)
		}
	}
	s.active = keep
	return dst
}
