package graph

import (
	"math"
	"math/rand"
	"testing"
)

// eagerShortestPaths is the bucket-queue Dijkstra as it was before lazy
// bucket activation: every push sifts into its bucket's heap at once,
// and stale entries are discarded only when popped. It is the reference
// the lazy queue must match.
func eagerShortestPaths(g *CSR, src int, dist []float64, prev []int32, sc *DijkstraScratch) {
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	inv := sc.begin(g, src)
	count := 1
	for vb := int64(0); count > 0; {
		slot := vb % nBuckets
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		if dist[e.v] != e.d {
			sc.Stale++
			continue
		}
		sc.Pops++
		u, du := e.v, e.d
		for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
			v := g.To[ei]
			if nd := du + g.W[ei]; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				tb := int64(nd*inv) % nBuckets
				sc.buckets[tb] = bqPush(sc.buckets[tb], bqEntry{nd, v})
				count++
				sc.Pushes++
			}
		}
	}
}

// eagerShortestDist is the eager-heap form of ShortestDistInto.
func eagerShortestDist(g *CSR, src int, dist []float64, sc *DijkstraScratch) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	inv := sc.begin(g, src)
	var stack []int32
	count := 1
	for vb := int64(0); count > 0; {
		slot := vb % nBuckets
		b := sc.buckets[slot]
		if len(b) == 0 {
			vb++
			continue
		}
		var e bqEntry
		e, b = bqPop(b, &sc.Scanned)
		sc.buckets[slot] = b
		count--
		if dist[e.v] != e.d {
			sc.Stale++
			continue
		}
		sc.Pops++
		u, du := e.v, e.d
		for {
			for ei := g.Off[u]; ei < g.Off[u+1]; ei++ {
				v := g.To[ei]
				nd := du + g.W[ei]
				if nd >= dist[v] {
					continue
				}
				dist[v] = nd
				if nd == du {
					stack = append(stack, v)
					continue
				}
				tb := int64(nd*inv) % nBuckets
				sc.buckets[tb] = bqPush(sc.buckets[tb], bqEntry{nd, v})
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
}

// sameCounters compares every queue counter except Scanned, which the
// lazy queue lowers by design.
func sameCounters(t *testing.T, trial int, got, want *DijkstraScratch) {
	t.Helper()
	if got.Pushes != want.Pushes || got.Pops != want.Pops || got.Stale != want.Stale || got.ZeroSettles != want.ZeroSettles {
		t.Fatalf("trial %d: counters pushes/pops/stale/zero = %d/%d/%d/%d, eager %d/%d/%d/%d", trial,
			got.Pushes, got.Pops, got.Stale, got.ZeroSettles, want.Pushes, want.Pops, want.Stale, want.ZeroSettles)
	}
}

// TestLazyBucketsMatchEagerHeap pins lazy bucket activation against the
// eager-heap queue on random plateau graphs: bitwise-identical dist and
// prev from both Dijkstras, and identical push, pop, stale and
// zero-settle counts.
func TestLazyBucketsMatchEagerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(80)
		c := FromDigraph(randomLevelDigraph(rng, n, rng.Intn(10*n)))
		src := rng.Intn(n)

		lazy, eager := new(DijkstraScratch), new(DijkstraScratch)
		gotDist, wantDist := make([]float64, n), make([]float64, n)
		gotPrev, wantPrev := make([]int32, n), make([]int32, n)
		c.ShortestPathsInto(src, gotDist, gotPrev, lazy)
		eagerShortestPaths(c, src, wantDist, wantPrev, eager)
		for v := 0; v < n; v++ {
			if math.Float64bits(gotDist[v]) != math.Float64bits(wantDist[v]) || gotPrev[v] != wantPrev[v] {
				t.Fatalf("trial %d: v%d lazy (%v,%d) eager (%v,%d)", trial, v, gotDist[v], gotPrev[v], wantDist[v], wantPrev[v])
			}
		}
		sameCounters(t, trial, lazy, eager)

		lazy, eager = new(DijkstraScratch), new(DijkstraScratch)
		c.ShortestDistInto(src, gotDist, lazy)
		eagerShortestDist(c, src, wantDist, eager)
		for v := 0; v < n; v++ {
			if math.Float64bits(gotDist[v]) != math.Float64bits(wantDist[v]) {
				t.Fatalf("trial %d: dist-only v%d lazy %v eager %v", trial, v, gotDist[v], wantDist[v])
			}
		}
		sameCounters(t, trial, lazy, eager)
	}
}
