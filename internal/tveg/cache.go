package tveg

import (
	"sync"
	"sync/atomic"

	"repro/internal/channel"
	"repro/internal/tvg"
)

// costCache memoizes MinCost per (edge, time, model, ε), a pure function
// of the graph's contacts and parameters, so the cache is invisible to
// results; under Rician/Nakagami models each miss pays a bisection over
// special functions, which the ED-function memo shares across
// coordinates. Discrete cost sets are not cached: each DCS caller asks
// for a given (node, time) once and keeps its own table.
//
// Invalidation rules (documented in DESIGN.md):
//   - AddContact/RemoveContact/RetimeChannel invalidate selectively:
//     an edit to the pair (a, b) deletes the MinCost entries of that
//     pair, across every model. The ED-function memo survives — it
//     keys on channel parameters (β, ε), not coordinates.
//   - WithModel views share the cache; the model is part of every key.
//   - Params are assumed frozen once planning starts. Mutating
//     Params.Eps is still safe (ε is part of every key); mutating the
//     physical constants mid-flight requires InvalidateCostCache.
type costCache struct {
	// rows[i] holds node i's cached queries. A per-node row keeps
	// readers of different nodes off each other's locks and lets an
	// edit drop exactly its pair's entries.
	rows   []cacheRow
	edMemo channel.Memo

	// Per-map hit/miss counters feed the observability layer. Purely
	// additive: no planner reads them back, so cached results (and
	// therefore schedules) are unaffected.
	minCostHits, minCostMisses atomic.Int64
}

// cacheRow caches node i's MinCost(i, ·, t) results.
type cacheRow struct {
	mu      sync.RWMutex
	minCost map[minCostKey]float64
}

type minCostKey struct {
	j     tvg.NodeID
	t     float64
	model Model
	eps   float64
}

func newCostCache(n int) *costCache {
	return &costCache{rows: make([]cacheRow, n)}
}

// row returns node i's cache row, or nil when the cache is disabled or
// i is not a node.
func (c *costCache) row(i tvg.NodeID) *cacheRow {
	if c == nil || uint(i) >= uint(len(c.rows)) {
		return nil
	}
	return &c.rows[i]
}

// memoMinCost inverts f through the ED-function memo, or directly when
// the cache is disabled.
func (c *costCache) memoMinCost(f channel.EDFunction, eps float64) float64 {
	if c == nil {
		return f.MinCost(eps)
	}
	return c.edMemo.MinCost(f, eps)
}

func (r *cacheRow) loadMinCost(k minCostKey) (float64, bool) {
	r.mu.RLock()
	w, ok := r.minCost[k]
	r.mu.RUnlock()
	return w, ok
}

func (r *cacheRow) storeMinCost(k minCostKey, w float64) {
	r.mu.Lock()
	if r.minCost == nil {
		r.minCost = make(map[minCostKey]float64)
	}
	r.minCost[k] = w
	r.mu.Unlock()
}

// drop deletes row i's MinCost entries towards j.
func (r *cacheRow) drop(j tvg.NodeID) {
	r.mu.Lock()
	for k := range r.minCost {
		if k.j == j {
			delete(r.minCost, k)
		}
	}
	r.mu.Unlock()
}

// invalidatePair deletes every cached result an edit to the edge (a, b)
// could change: the pair's MinCost entries (both orientations, every
// model and ε). Only the two endpoint rows are touched. Hit/miss
// counters keep accumulating across selective invalidations so
// cache-effectiveness metrics span edit sequences.
func (c *costCache) invalidatePair(a, b tvg.NodeID) {
	c.rows[a].drop(b)
	c.rows[b].drop(a)
}

func (c *costCache) reset() {
	for i := range c.rows {
		r := &c.rows[i]
		r.mu.Lock()
		r.minCost = nil
		r.mu.Unlock()
	}
	c.edMemo.Reset()
	c.minCostHits.Store(0)
	c.minCostMisses.Store(0)
}

// CacheStats is a point-in-time view of the cost cache's effectiveness:
// one hit/miss/size triple per memoized query family.
type CacheStats struct {
	MinCostHits, MinCostMisses, MinCostSize int64
	// DCSHits, DCSMisses and DCSSize always read 0: discrete cost sets
	// are not cached. The fields stay for existing readers.
	DCSHits, DCSMisses, DCSSize int64
	// EDMemo is the underlying MinCost-inversion memo shared by all
	// coordinate keys. It holds the Rician and Nakagami inversions only:
	// Step and Rayleigh costs are computed directly and never reach it.
	EDMemo channel.MemoStats
}

// CostCacheStats returns the cache counters; ok is false when the cache
// is disabled. The numbers are individually atomic but not mutually
// consistent under concurrent queries — metrics-grade, by design.
func (g *Graph) CostCacheStats() (CacheStats, bool) {
	c := g.cache
	if c == nil {
		return CacheStats{}, false
	}
	st := CacheStats{
		MinCostHits:   c.minCostHits.Load(),
		MinCostMisses: c.minCostMisses.Load(),
		EDMemo:        c.edMemo.Stats(),
	}
	for i := range c.rows {
		r := &c.rows[i]
		r.mu.RLock()
		st.MinCostSize += int64(len(r.minCost))
		r.mu.RUnlock()
	}
	return st, true
}

// EnableCostCache attaches a memo cache for MinCost queries to the
// graph and returns the graph for chaining. Views created by WithModel
// before or after share the same cache (the model is part of every key).
// Safe for concurrent readers; idempotent.
func (g *Graph) EnableCostCache() *Graph {
	if g.cache == nil {
		g.cache = newCostCache(g.N())
	}
	return g
}

// CostCacheEnabled reports whether the graph memoizes cost queries.
func (g *Graph) CostCacheEnabled() bool { return g.cache != nil }

// InvalidateCostCache empties the cache (for callers that mutate Params
// after planning started; AddContact invalidates automatically).
func (g *Graph) InvalidateCostCache() {
	if g.cache != nil {
		g.cache.reset()
	}
}
