package tveg

import (
	"fmt"

	"repro/internal/interval"
	"repro/internal/tvg"
)

// RemoveContact deletes every point of iv from the presence and channel
// segments of the edge (i, j). Segments partially covered by iv are
// clipped (keeping their distance); a segment strictly containing iv
// splits in two. It reports whether the graph actually changed: no-op
// removals (absent edge, interval disjoint from all contacts) leave the
// version and every cached artifact untouched.
func (g *Graph) RemoveContact(i, j tvg.NodeID, iv interval.Interval) bool {
	if iv.Empty() {
		return false
	}
	s := g.Slot(i, j)
	if !g.Graph.RemoveContact(i, j, iv) {
		// Presence is the union of the segment intervals, so an
		// unchanged presence means no segment overlaps iv either.
		return false
	}
	old := g.chans.at(s)
	out := make([]Segment, 0, len(old)+1)
	for _, seg := range old {
		if seg.Iv.End <= iv.Start || seg.Iv.Start >= iv.End {
			out = append(out, seg)
			continue
		}
		if left := (interval.Interval{Start: seg.Iv.Start, End: iv.Start}); !left.Empty() {
			out = append(out, Segment{left, seg.Dist})
		}
		if right := (interval.Interval{Start: iv.End, End: seg.Iv.End}); !right.Empty() {
			out = append(out, Segment{right, seg.Dist})
		}
	}
	if len(out) == 0 {
		out = nil // the TVG recycled the slot with the pair's last contact
	}
	g.chans.set(s, out) // clipping preserves the sorted order
	if g.cache != nil {
		g.cache.invalidatePair(i, j)
	}
	return true
}

// Segments returns a copy of the channel segments of edge (i, j) in
// start order (nil when the pair has none). Edit generators use it to
// aim removals and retimes at real contacts.
func (g *Graph) Segments(i, j tvg.NodeID) []Segment {
	segs := g.chans.at(g.Slot(i, j))
	if len(segs) == 0 {
		return nil
	}
	out := make([]Segment, len(segs))
	copy(out, segs)
	return out
}

// RetimeChannel moves the contact of (i, j) whose segment exactly spans
// from to the window to, keeping its distance. Retiming to the identical
// window is a no-op that leaves the version untouched. It fails when no
// segment spans exactly from, when from or to overlaps another segment
// of the pair (segments of a pair must stay disjoint so presence and
// channel state remain aligned), or when to is empty. The reported bool
// is whether the graph changed.
func (g *Graph) RetimeChannel(i, j tvg.NodeID, from, to interval.Interval) (bool, error) {
	if from == to {
		return false, nil
	}
	if to.Empty() {
		return false, fmt.Errorf("tveg: retime (%d,%d) to empty interval %v", i, j, to)
	}
	dist := 0.0
	found := false
	for _, s := range g.chans.at(g.Slot(i, j)) {
		if s.Iv == from {
			dist = s.Dist
			found = true
			continue
		}
		if s.Iv.Overlaps(from) {
			return false, fmt.Errorf("tveg: retime (%d,%d): %v overlaps a different contact %v", i, j, from, s.Iv)
		}
		if s.Iv.Overlaps(to) {
			return false, fmt.Errorf("tveg: retime (%d,%d): target %v overlaps contact %v", i, j, to, s.Iv)
		}
	}
	if !found {
		return false, fmt.Errorf("tveg: retime (%d,%d): no contact spans exactly %v", i, j, from)
	}
	// Remove-then-add runs the same mutation code an explicit
	// RemoveContact/AddContact pair would, so a cold replay of the edit
	// sequence reconstructs byte-identical channel state.
	g.RemoveContact(i, j, from)
	g.AddContact(i, j, to, dist)
	return true, nil
}
