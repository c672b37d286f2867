package tvg

import "repro/internal/interval"

// The link index holds the state of every pair that has presence. Each
// node has a row: its ever-neighbours in ascending order and,
// position by position, the slot of each pair. A pair appears in both
// endpoint rows under one slot, and the slot indexes the pair's state
// (the presence set here; tveg keeps its channel segments in a table
// indexed by the same slots). A point lookup (i, j) is a binary search
// in row i; neighbour walks read the row directly. Memory is O(pairs),
// whatever the node count.

// Slot identifies a pair's entry in the link index. Slots of pairs
// whose last contact is removed are recycled for the next new pair.
type Slot int32

// NoSlot is the slot of a pair without presence.
const NoSlot Slot = -1

// row is one node's entry of the link index: nbrs[k] is a neighbour and
// slots[k] the slot of the pair.
type row struct {
	nbrs  []NodeID
	slots []Slot
}

// find returns the position of j in the row, or the insertion point and
// false when j is absent.
func (r *row) find(j NodeID) (int, bool) {
	lo, hi := 0, len(r.nbrs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.nbrs[m] < j {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.nbrs) && r.nbrs[lo] == j
}

func (r *row) insert(k int, j NodeID, s Slot) {
	r.nbrs = append(r.nbrs, 0)
	copy(r.nbrs[k+1:], r.nbrs[k:])
	r.nbrs[k] = j
	r.slots = append(r.slots, 0)
	copy(r.slots[k+1:], r.slots[k:])
	r.slots[k] = s
}

func (r *row) remove(j NodeID) {
	if k, ok := r.find(j); ok {
		r.nbrs = append(r.nbrs[:k], r.nbrs[k+1:]...)
		r.slots = append(r.slots[:k], r.slots[k+1:]...)
	}
}

// Slot returns the link-index slot of the pair (i, j), or NoSlot when
// the pair has no presence (including out-of-range nodes and i == j).
func (g *Graph) Slot(i, j NodeID) Slot {
	if uint(i) >= uint(len(g.rows)) {
		return NoSlot
	}
	r := &g.rows[i]
	if k, ok := r.find(j); ok {
		return r.slots[k]
	}
	return NoSlot
}

// Row returns node i's row of the link index: its ever-neighbours in
// ascending order (the EverNeighbors slice) and the slot of each pair,
// position by position. Both slices alias internal state and must not
// be modified.
func (g *Graph) Row(i NodeID) ([]NodeID, []Slot) {
	g.checkNode(i)
	r := &g.rows[i]
	return r.nbrs, r.slots
}

// SlotRhoTau evaluates ρ_τ at time t for the pair in slot s.
func (g *Graph) SlotRhoTau(s Slot, t float64) bool {
	return g.presence[s].ContainsWindow(t, g.tau)
}

// link returns the slot of the pair (i, j), creating the pair in both
// rows when it is new.
func (g *Graph) link(i, j NodeID) Slot {
	k, ok := g.rows[i].find(j)
	if ok {
		return g.rows[i].slots[k]
	}
	var s Slot
	if n := len(g.free); n > 0 {
		s = g.free[n-1]
		g.free = g.free[:n-1]
	} else {
		s = Slot(len(g.presence))
		g.presence = append(g.presence, interval.Set{})
	}
	g.rows[i].insert(k, j, s)
	k, _ = g.rows[j].find(i)
	g.rows[j].insert(k, i, s)
	return s
}

// unlink removes the pair in slot s from both rows and recycles the
// slot.
func (g *Graph) unlink(i, j NodeID, s Slot) {
	g.rows[i].remove(j)
	g.rows[j].remove(i)
	g.presence[s] = interval.Set{}
	g.free = append(g.free, s)
}
