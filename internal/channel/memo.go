package channel

import (
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe memoization table for MinCost inversions.
// MinCost is a pure function of the ED-function value and eps, but for
// the Rician and Nakagami models it costs an exponential search plus up
// to 200 bisection steps over special functions — and the auxiliary-graph
// construction, the greedy backbones, and the Steiner search re-query the
// same ψ costs at the same DTS points over and over. The memo turns every
// repeat into one map lookup without changing a single returned bit.
// Only those two bisecting models are memoized: the Step and Rayleigh
// inversions are a threshold and one logarithm, cheaper than any hash,
// so they (and any other EDFunction) are computed directly and leave
// the table and its statistics untouched.
//
// The zero value is ready to use and safe for concurrent use by multiple
// goroutines. Entries are only ever computed from their key, so a racing
// double-compute stores the same value twice — determinism is unaffected
// by scheduling.
type Memo struct {
	mu sync.RWMutex
	m  map[memoKey]float64
	// hits/misses feed the observability layer's cache metrics; they
	// count memoized models only.
	hits   atomic.Int64
	misses atomic.Int64
}

// MemoStats is a point-in-time view of the memo's effectiveness.
type MemoStats struct {
	// Hits and Misses count Rician and Nakagami MinCost calls answered
	// from / absent from the table since construction or the last Reset.
	Hits, Misses int64
	// Size is the current number of memoized entries.
	Size int64
}

// Stats returns the memo's hit/miss/size counters. Safe for concurrent
// use with MinCost and Reset; the three numbers are individually atomic
// but not mutually consistent under concurrent writes (good enough for
// metrics, which is all this feeds).
func (c *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Size:   int64(c.Len()),
	}
}

// memoKey identifies one memoized inversion: the model, its shape
// parameter (Rice K or Nakagami m), β and eps.
type memoKey struct {
	nakagami    bool
	shape, beta float64
	eps         float64
}

// MinCost returns f.MinCost(eps), memoized for the Rician and Nakagami
// models and computed directly for every other EDFunction.
func (c *Memo) MinCost(f EDFunction, eps float64) float64 {
	var k memoKey
	switch f := f.(type) {
	case Rician:
		k = memoKey{shape: f.K, beta: f.Beta, eps: eps}
	case Nakagami:
		k = memoKey{nakagami: true, shape: f.M, beta: f.Beta, eps: eps}
	default:
		return f.MinCost(eps)
	}
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		c.hits.Add(1)
		return v
	}
	c.misses.Add(1)
	v = f.MinCost(eps)
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[memoKey]float64)
	}
	c.m[k] = v
	c.mu.Unlock()
	return v
}

// Reset empties the memo and zeroes its hit/miss statistics — a reset
// memo is indistinguishable from a fresh one, so stats from before an
// invalidation cannot leak into the next run's cache-effectiveness
// numbers. Callers invalidate whenever the mapping behind an ED-function
// value could have changed — in this package it cannot (the key embeds
// every parameter), so Reset exists for the higher-level caches that key
// by graph coordinates instead.
func (c *Memo) Reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
}

// Len reports the number of memoized entries (for tests and stats).
func (c *Memo) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
