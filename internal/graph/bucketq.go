package graph

import "sync"

// This file implements the CSR Dijkstra on a monotone bucket queue
// (a Dial-style calendar queue generalized to float keys). Edge weights
// in the auxiliary graph are drawn from the discrete cost sets — a small
// set of bounded power levels — so tentative distances live in a sliding
// window of width MaxW above the last settled distance. nBuckets
// circular buckets of width MaxW/(nBuckets-4) cover that window with
// slack for float rounding.
//
// Each bucket is a small binary heap ordered by the (distance, vertex)
// lexicographic key. The auxiliary graph is dominated by zero-weight
// wait and coverage edges, so distances plateau onto few distinct
// values and whole connected regions land in ONE bucket; a per-bucket
// heap keeps those plateau pops at O(log k) where a scan-for-min would
// go quadratic. Heaps are built lazily: a push into a bucket ahead of
// the sweep is a plain append, and when the sweep reaches a bucket it
// drops the entries that went stale meanwhile and heapifies the rest.
// A push into the current bucket sifts up; pop removes the root of the
// current bucket.
//
// Determinism contract: pop returns the exact minimum of the (distance,
// vertex) lexicographic order among live entries. All entries with equal
// distance land in the same bucket (the bucket index is a pure monotone
// function of the key), so the current bucket's heap root — skipping
// stale entries — is the global minimum. Combined with strict-less
// relaxation and CSR edge order this makes dist/prev bitwise identical
// to the reference binary-heap Dijkstra with the same (dist, v) ordering
// — the property the differential tests in csr_test.go pin.
//
// ShortestDistInto is the distances-only variant. Without predecessors
// the settle order among equal labels is free: a label is the minimum
// over paths of a left-folded float sum, and fl(x+w) is monotone in x,
// so any order that settles in non-decreasing label order yields the
// same labels bit for bit. It therefore settles each zero-weight
// closure (relaxations with du+w == du: zero-weight edges, and weights
// that rounding absorbs) from a plain stack before returning to the
// buckets, skipping the heap sifts the (dist, v) tie-break costs.

// nBuckets is the circular bucket count. The window of live keys spans
// at most MaxW = (nBuckets-4) bucket widths; the 4 spare buckets absorb
// the floor-rounding slack at both window edges so two distinct virtual
// buckets never alias the same physical slot.
const nBuckets = 132

type bqEntry struct {
	d float64
	v int32
}

// bqLess is the (distance, vertex) lexicographic order shared with the
// reference heap.
func bqLess(a, b bqEntry) bool {
	return a.d < b.d || (a.d == b.d && a.v < b.v)
}

// DijkstraScratch holds the bucket storage and operation counters for
// ShortestPathsInto and ShortestDistInto. One scratch serves one
// Dijkstra at a time; parallel sweeps take one per worker from the
// package pool (GetScratch). The counters accumulate across runs until
// the owner flushes them to its metrics recorder.
type DijkstraScratch struct {
	buckets [nBuckets][]bqEntry
	zero    []int32 // ShortestDistInto's zero-weight closure stack

	// Pushes/Pops/Stale/Scanned count queue operations: entries
	// inserted, live entries settled from the bucket heaps, superseded
	// entries discarded, and sift-down levels examined by pops and by
	// the heapify that activates a bucket.
	// ZeroSettles counts vertices ShortestDistInto settled from its
	// closure stack, never through a bucket.
	Pushes, Pops, Stale, Scanned, ZeroSettles int64
}

var scratchPool = sync.Pool{New: func() any { return new(DijkstraScratch) }}

// GetScratch takes a scratch from the package pool with zeroed counters.
func GetScratch() *DijkstraScratch {
	sc := scratchPool.Get().(*DijkstraScratch)
	sc.Pushes, sc.Pops, sc.Stale, sc.Scanned, sc.ZeroSettles = 0, 0, 0, 0, 0
	return sc
}

// PutScratch returns a scratch to the package pool.
func PutScratch(sc *DijkstraScratch) {
	if sc != nil {
		scratchPool.Put(sc)
	}
}

// bqPush appends e to the bucket heap and sifts it up. The sift moves a
// hole toward the root and writes e once, instead of swapping e upward.
func bqPush(b []bqEntry, e bqEntry) []bqEntry {
	b = append(b, e)
	i := len(b) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !bqLess(e, b[p]) {
			break
		}
		b[i] = b[p]
		i = p
	}
	b[i] = e
	return b
}

// bqPop removes and returns the root of the bucket heap. The sift moves
// a hole down to the displaced last entry's final position and writes it
// once. scanned counts the sift-down levels.
func bqPop(b []bqEntry, scanned *int64) (bqEntry, []bqEntry) {
	root := b[0]
	last := len(b) - 1
	e := b[last]
	b = b[:last]
	if last > 0 {
		bqSiftDown(b, 0, e, scanned)
	}
	return root, b
}

// bqSiftDown moves the hole at i down the heap b to e's final position
// and writes e there. scanned counts the levels examined.
func bqSiftDown(b []bqEntry, i int, e bqEntry, scanned *int64) {
	n := len(b)
	for {
		l := 2*i + 1
		if l >= n-1 {
			if l == n-1 && bqLess(b[l], e) {
				b[i] = b[l]
				i = l
			}
			break
		}
		m := l
		if bqLess(b[l+1], b[l]) {
			m = l + 1
		}
		*scanned++
		if !bqLess(b[m], e) {
			break
		}
		b[i] = b[m]
		i = m
	}
	b[i] = e
}

// bqEnqueue inserts e into bucket tb. Only the bucket being swept (cur)
// is a heap; any other bucket is a plain list until the sweep reaches
// it and activate heapifies it.
func (sc *DijkstraScratch) bqEnqueue(tb, cur int64, e bqEntry) {
	if tb == cur {
		sc.buckets[tb] = bqPush(sc.buckets[tb], e)
	} else {
		sc.buckets[tb] = append(sc.buckets[tb], e)
	}
}

// activate turns the bucket at slot, which the sweep has just reached,
// into a heap and returns the number of entries it dropped. It first
// drops the stale entries (d != dist[v]): labels only fall, so a stale
// entry never turns live again, and a stale entry counts into Stale
// once, here or when popped. The heapify's sift-down levels count into
// Scanned.
func (sc *DijkstraScratch) activate(slot int64, dist []float64) int {
	b := sc.buckets[slot]
	live := b[:0]
	for _, e := range b {
		//tmedbvet:ignore floateq liveness test is identity of the pushed key with the current label, not a tolerance comparison
		if dist[e.v] == e.d {
			live = append(live, e)
		}
	}
	for i := len(live)/2 - 1; i >= 0; i-- {
		bqSiftDown(live, i, live[i], &sc.Scanned)
	}
	sc.buckets[slot] = live
	dropped := len(b) - len(live)
	sc.Stale += int64(dropped)
	return dropped
}

// begin empties the buckets, queues src at distance 0 and returns the
// inverse bucket width for g's weights.
func (sc *DijkstraScratch) begin(g *CSR, src int) float64 {
	for i := range sc.buckets {
		sc.buckets[i] = sc.buckets[i][:0]
	}
	sc.buckets[0] = append(sc.buckets[0], bqEntry{0, int32(src)})
	width := g.maxW / float64(nBuckets-4)
	if width <= 0 {
		width = 1 // all weights zero: every key is 0, one bucket suffices
	}
	return 1 / width
}

// ShortestPathsInto runs Dijkstra from src, writing distances and
// predecessors into dist and prev (each len N, fully overwritten;
// prev[v] = -1 for src and unreachable vertices). sc provides the queue
// storage; nil allocates a throwaway.
//
//tmedbvet:hotpath
func (g *CSR) ShortestPathsInto(src int, dist []float64, prev []int32, sc *DijkstraScratch) {
	n := g.N()
	if sc == nil {
		//tmedbvet:ignore hotalloc documented nil-scratch fallback for one-off callers; hot callers pass pooled scratch
		sc = new(DijkstraScratch)
	}
	for i := 0; i < n; i++ {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	inv := sc.begin(g, src)
	count := 1
	active := false // whether the bucket at vb is a heap yet
	for vb := int64(0); count > 0; {
		slot := vb % nBuckets
		if !active && len(sc.buckets[slot]) > 0 {
			count -= sc.activate(slot, dist)
			active = true
		}
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			active = false
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		// Superseded entry: its vertex found a shorter path after it was
		// pushed. Per vertex at most one entry ever satisfies
		// d == dist[v] — pushes for a vertex carry strictly decreasing
		// d — so liveness needs no settled-set bookkeeping.
		//tmedbvet:ignore floateq liveness test is identity of the pushed key with the current label, not a tolerance comparison
		if dist[e.v] != e.d {
			sc.Stale++
			continue
		}
		sc.Pops++

		u := e.v
		du := e.d
		for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
			v := g.To[ei]
			if nd := du + g.W[ei]; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				sc.bqEnqueue(int64(nd*inv)%nBuckets, slot, bqEntry{nd, v})
				count++
				sc.Pushes++
			}
		}
	}
}

// ShortestDistInto runs Dijkstra from src, writing the same distances
// as ShortestPathsInto into dist (len N, fully overwritten) without
// keeping predecessors. A relaxed vertex whose new label equals its
// settler's goes onto the scratch's closure stack instead of a bucket,
// and the stack is drained before the next bucket pop: every label in
// the queue is >= the settler's, so a closure vertex's label is final
// the moment it is set. sc provides the queue storage; nil allocates a
// throwaway.
//
//tmedbvet:hotpath
func (g *CSR) ShortestDistInto(src int, dist []float64, sc *DijkstraScratch) {
	n := g.N()
	if sc == nil {
		//tmedbvet:ignore hotalloc documented nil-scratch fallback for one-off callers; hot callers pass pooled scratch
		sc = new(DijkstraScratch)
	}
	for i := 0; i < n; i++ {
		dist[i] = Inf
	}
	dist[src] = 0
	inv := sc.begin(g, src)
	stack := sc.zero[:0]
	count := 1
	active := false // whether the bucket at vb is a heap yet
	for vb := int64(0); count > 0; {
		slot := vb % nBuckets
		if !active && len(sc.buckets[slot]) > 0 {
			count -= sc.activate(slot, dist)
			active = true
		}
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			active = false
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		// Liveness as in ShortestPathsInto. A closure-settled vertex's
		// label is below every key it was ever pushed with, so its
		// bucket entries all read stale.
		//tmedbvet:ignore floateq liveness test is identity of the pushed key with the current label, not a tolerance comparison
		if dist[e.v] != e.d {
			sc.Stale++
			continue
		}
		sc.Pops++

		u := e.v
		du := e.d
		for {
			for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
				v := g.To[ei]
				nd := du + g.W[ei]
				if nd >= dist[v] {
					continue
				}
				dist[v] = nd
				//tmedbvet:ignore floateq closure membership is exact label identity with the settler (zero or rounding-absorbed weight), not a tolerance test
				if nd == du {
					stack = append(stack, v)
					continue
				}
				sc.bqEnqueue(int64(nd*inv)%nBuckets, slot, bqEntry{nd, v})
				count++
				sc.Pushes++
			}
			if len(stack) == 0 {
				break
			}
			u = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			sc.ZeroSettles++
		}
	}
	sc.zero = stack
}

// ShortestPaths is the allocating convenience form of ShortestPathsInto.
func (g *CSR) ShortestPaths(src int) (dist []float64, prev []int32) {
	dist = make([]float64, g.N())
	prev = make([]int32, g.N())
	g.ShortestPathsInto(src, dist, prev, nil)
	return dist, prev
}
