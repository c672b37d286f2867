package tveg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/channel"
	"repro/internal/interval"
	"repro/internal/tvg"
)

// mapGraph is the hashed link state the link index replaced: presence
// and channel segments in maps keyed by the canonical pair, plus sorted
// ever-neighbour lists. It is the oracle the index must reproduce.
type mapGraph struct {
	tau       float64
	params    Params
	presence  map[tvg.EdgeKey]interval.Set
	segs      map[tvg.EdgeKey][]Segment
	neighbors [][]tvg.NodeID
}

func newMapGraph(n int, tau float64, params Params) *mapGraph {
	return &mapGraph{
		tau:       tau,
		params:    params,
		presence:  make(map[tvg.EdgeKey]interval.Set),
		segs:      make(map[tvg.EdgeKey][]Segment),
		neighbors: make([][]tvg.NodeID, n),
	}
}

func insertNode(s []tvg.NodeID, v tvg.NodeID) []tvg.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeNode(s []tvg.NodeID, v tvg.NodeID) []tvg.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return append(s[:i], s[i+1:]...)
}

func (m *mapGraph) addContact(i, j tvg.NodeID, iv interval.Interval, dist float64) {
	if iv.Empty() {
		return
	}
	k := tvg.MakeEdgeKey(i, j)
	old, existed := m.presence[k]
	m.presence[k] = old.Add(iv)
	if !existed {
		m.neighbors[i] = insertNode(m.neighbors[i], j)
		m.neighbors[j] = insertNode(m.neighbors[j], i)
	}
	m.segs[k] = append(m.segs[k], Segment{iv, dist})
	sort.SliceStable(m.segs[k], func(a, b int) bool { return m.segs[k][a].Iv.Start < m.segs[k][b].Iv.Start })
}

func (m *mapGraph) removeContact(i, j tvg.NodeID, iv interval.Interval) bool {
	if iv.Empty() {
		return false
	}
	k := tvg.MakeEdgeKey(i, j)
	old, existed := m.presence[k]
	if !existed {
		return false
	}
	next := old.Subtract(iv)
	if next.Equal(old) {
		return false
	}
	if next.Empty() {
		delete(m.presence, k)
		m.neighbors[i] = removeNode(m.neighbors[i], j)
		m.neighbors[j] = removeNode(m.neighbors[j], i)
	} else {
		m.presence[k] = next
	}
	var out []Segment
	for _, s := range m.segs[k] {
		if s.Iv.End <= iv.Start || s.Iv.Start >= iv.End {
			out = append(out, s)
			continue
		}
		if left := (interval.Interval{Start: s.Iv.Start, End: iv.Start}); !left.Empty() {
			out = append(out, Segment{left, s.Dist})
		}
		if right := (interval.Interval{Start: iv.End, End: s.Iv.End}); !right.Empty() {
			out = append(out, Segment{right, s.Dist})
		}
	}
	if len(out) == 0 {
		delete(m.segs, k)
	} else {
		m.segs[k] = out
	}
	return true
}

func (m *mapGraph) retime(i, j tvg.NodeID, from, to interval.Interval) (bool, error) {
	if from == to {
		return false, nil
	}
	if to.Empty() {
		return false, fmt.Errorf("empty target")
	}
	dist, found := 0.0, false
	for _, s := range m.segs[tvg.MakeEdgeKey(i, j)] {
		if s.Iv == from {
			dist, found = s.Dist, true
			continue
		}
		if s.Iv.Overlaps(from) || s.Iv.Overlaps(to) {
			return false, fmt.Errorf("overlap")
		}
	}
	if !found {
		return false, fmt.Errorf("no such contact")
	}
	m.removeContact(i, j, from)
	m.addContact(i, j, to, dist)
	return true, nil
}

func (m *mapGraph) rhoTau(i, j tvg.NodeID, t float64) bool {
	return m.presence[tvg.MakeEdgeKey(i, j)].ContainsWindow(t, m.tau)
}

func (m *mapGraph) segmentAt(i, j tvg.NodeID, t float64) (Segment, bool) {
	for _, s := range m.segs[tvg.MakeEdgeKey(i, j)] {
		if s.Iv.Contains(t) {
			return s, true
		}
	}
	return Segment{}, false
}

func (m *mapGraph) beta(i, j tvg.NodeID, t float64) float64 {
	s, ok := m.segmentAt(i, j, t)
	if !ok {
		return math.Inf(1)
	}
	return m.params.NoiseGamma() * math.Pow(s.Dist, m.params.Alpha)
}

func (m *mapGraph) edAt(model Model, i, j tvg.NodeID, t float64) channel.EDFunction {
	if !m.rhoTau(i, j, t) {
		return channel.Absent{}
	}
	beta := m.beta(i, j, t)
	if math.IsInf(beta, 1) {
		return channel.Absent{}
	}
	switch model {
	case Static:
		return channel.Step{Threshold: beta}
	case RayleighFading:
		return channel.Rayleigh{Beta: beta}
	case RicianFading:
		return channel.Rician{K: m.params.RiceK, Beta: beta}
	default:
		return channel.Nakagami{M: m.params.NakagamiM, Beta: beta}
	}
}

func (m *mapGraph) minCost(model Model, i, j tvg.NodeID, t float64) float64 {
	ed := m.edAt(model, i, j, t)
	if _, absent := ed.(channel.Absent); absent {
		return math.Inf(1)
	}
	w := ed.MinCost(m.params.Eps)
	if w < m.params.WMin {
		w = m.params.WMin
	}
	if w > m.params.WMax {
		return math.Inf(1)
	}
	return w
}

func (m *mapGraph) dcs(model Model, i tvg.NodeID, t float64) []CostLevel {
	var out []CostLevel
	for _, j := range m.neighbors[i] {
		if w := m.minCost(model, i, j, t); !math.IsInf(w, 1) {
			out = append(out, CostLevel{w, j})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].W != out[b].W {
			return out[a].W < out[b].W
		}
		return out[a].Node < out[b].Node
	})
	return out
}

// compareLinkState checks every link query of g against the oracle at
// the probe times.
func compareLinkState(t *testing.T, step int, g *Graph, m *mapGraph, n int, probes []float64) {
	t.Helper()
	for i := tvg.NodeID(0); int(i) < n; i++ {
		if got, want := g.EverNeighbors(i), m.neighbors[i]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d %v: EverNeighbors(%d) = %v, want %v", step, g.Model, i, got, want)
		}
		for _, tt := range probes {
			if got, want := g.DCS(i, tt), m.dcs(g.Model, i, tt); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("step %d %v: DCS(%d,%g) = %v, want %v", step, g.Model, i, tt, got, want)
			}
		}
		for j := tvg.NodeID(0); int(j) < n; j++ {
			if i == j {
				continue
			}
			if got, want := g.Presence(i, j), m.presence[tvg.MakeEdgeKey(i, j)]; !got.Equal(want) {
				t.Fatalf("step %d: Presence(%d,%d) = %v, want %v", step, i, j, got, want)
			}
			for _, tt := range probes {
				if got, want := g.RhoTau(i, j, tt), m.rhoTau(i, j, tt); got != want {
					t.Fatalf("step %d: RhoTau(%d,%d,%g) = %v, want %v", step, i, j, tt, got, want)
				}
				gs, gok := g.SegmentAt(i, j, tt)
				ws, wok := m.segmentAt(i, j, tt)
				if gs != ws || gok != wok {
					t.Fatalf("step %d: SegmentAt(%d,%d,%g) = %v/%v, want %v/%v", step, i, j, tt, gs, gok, ws, wok)
				}
				if got, want := g.Beta(i, j, tt), m.beta(i, j, tt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: Beta(%d,%d,%g) = %g, want %g", step, i, j, tt, got, want)
				}
				if got, want := g.EDAt(i, j, tt), m.edAt(g.Model, i, j, tt); got != want {
					t.Fatalf("step %d %v: EDAt(%d,%d,%g) = %v, want %v", step, g.Model, i, j, tt, got, want)
				}
				if got, want := g.MinCost(i, j, tt), m.minCost(g.Model, i, j, tt); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d %v: MinCost(%d,%d,%g) = %g, want %g", step, g.Model, i, j, tt, got, want)
				}
			}
		}
	}
}

// TestLinkIndexMatchesMapOracle drives random AddContact, RemoveContact
// and RetimeChannel sequences — including removing a pair's last
// contact and re-adding the pair, which recycles its slot — and
// compares every link query with the hashed oracle, on the edited graph
// (cached and uncached) and on WithModel views taken before the edits.
func TestLinkIndexMatchesMapOracle(t *testing.T) {
	const n = 7
	span := interval.Interval{Start: 0, End: 1000}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tau := 0.0
		if seed%2 == 0 {
			tau = 4
		}
		params := DefaultParams()
		m := newMapGraph(n, tau, params)
		cached := New(n, span, tau, params, RayleighFading).EnableCostCache()
		plain := New(n, span, tau, params, Static)
		graphs := []*Graph{cached, plain, cached.WithModel(RicianFading), plain.WithModel(NakagamiFading)}

		pairWith := func() (tvg.NodeID, tvg.NodeID, bool) {
			var pairs []tvg.EdgeKey
			for k := range m.segs {
				pairs = append(pairs, k)
			}
			if len(pairs) == 0 {
				return 0, 0, false
			}
			sort.Slice(pairs, func(a, b int) bool {
				return pairs[a].A < pairs[b].A || (pairs[a].A == pairs[b].A && pairs[a].B < pairs[b].B)
			})
			k := pairs[rng.Intn(len(pairs))]
			if rng.Intn(2) == 0 {
				return k.B, k.A, true
			}
			return k.A, k.B, true
		}
		randIv := func() interval.Interval {
			start := float64(rng.Intn(900))
			return interval.Interval{Start: start, End: start + float64(5+rng.Intn(120))}
		}
		for step := 0; step < 100; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				i, j := tvg.NodeID(rng.Intn(n)), tvg.NodeID(rng.Intn(n))
				if i == j {
					continue
				}
				iv, dist := randIv(), float64(1+rng.Intn(30))
				m.addContact(i, j, iv, dist)
				cached.AddContact(i, j, iv, dist)
				plain.AddContact(i, j, iv, dist)
			case op < 6:
				i, j, ok := pairWith()
				if !ok {
					continue
				}
				iv := randIv()
				want := m.removeContact(i, j, iv)
				if cached.RemoveContact(i, j, iv) != want || plain.RemoveContact(i, j, iv) != want {
					t.Fatalf("seed %d step %d: RemoveContact(%d,%d,%v) disagrees with oracle %v", seed, step, i, j, iv, want)
				}
			case op < 8:
				// Remove the pair's last contact; the pair leaves both rows.
				i, j, ok := pairWith()
				if !ok {
					continue
				}
				all := interval.Interval{Start: span.Start, End: span.End}
				m.removeContact(i, j, all)
				cached.RemoveContact(i, j, all)
				plain.RemoveContact(i, j, all)
			default:
				i, j, ok := pairWith()
				if !ok {
					continue
				}
				segs := m.segs[tvg.MakeEdgeKey(i, j)]
				from := segs[rng.Intn(len(segs))].Iv
				to := randIv()
				wc, we := m.retime(i, j, from, to)
				for _, g := range []*Graph{cached, plain} {
					gc, ge := g.RetimeChannel(i, j, from, to)
					if gc != wc || (ge != nil) != (we != nil) {
						t.Fatalf("seed %d step %d: RetimeChannel(%d,%d,%v,%v) = %v/%v, oracle %v/%v", seed, step, i, j, from, to, gc, ge, wc, we)
					}
				}
			}
			probes := []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000)) + 0.5, float64(rng.Intn(1000))}
			for _, g := range graphs {
				compareLinkState(t, step, g, m, n, probes)
			}
		}
	}
}
