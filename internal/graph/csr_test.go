package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomDigraph builds a digraph whose weight distribution mimics the
// auxiliary graph: a few discrete power levels, heavy zero-weight
// cohorts (wait and coverage edges), possible duplicate edges.
func randomLevelDigraph(rng *rand.Rand, n, m int) *Digraph {
	g := New(n)
	levels := []float64{0, 0, 0, 0.5, 1, 1, 2.25, 4, 7.5}
	for k := 0; k < m; k++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		g.AddEdge(u, v, levels[rng.Intn(len(levels))])
	}
	return g
}

// TestCSRMatchesDigraph pins the CSR layout against the adjacency-list
// representation: same vertex count, same out-edges in the same order.
func TestCSRMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		d := randomLevelDigraph(rng, n, rng.Intn(6*n))
		c := FromDigraph(d)
		if c.N() != d.N() || c.M() != d.M() {
			t.Fatalf("size mismatch: csr %d/%d digraph %d/%d", c.N(), c.M(), d.N(), d.M())
		}
		for u := 0; u < n; u++ {
			out := d.Out(u)
			if c.OutDegree(u) != len(out) {
				t.Fatalf("deg(%d) = %d, want %d", u, c.OutDegree(u), len(out))
			}
			for i, e := range out {
				ei := c.Off[u] + int32(i)
				if int(c.To[ei]) != e.To || c.W[ei] != e.W {
					t.Fatalf("edge %d of %d: csr (%d,%g) digraph (%d,%g)", i, u, c.To[ei], c.W[ei], e.To, e.W)
				}
			}
		}
	}
}

// TestBucketDijkstraMatchesHeap is the differential test the ISSUE asks
// for: on randomized graphs (including zero-weight-heavy, disconnected,
// and duplicate-edge instances), the CSR bucket-queue Dijkstra must
// produce bitwise-identical distances AND predecessors to the retained
// reference heap implementation. Both use the canonical (dist, vertex)
// tie-break, so this is exact equality, not tolerance comparison.
func TestBucketDijkstraMatchesHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sc := GetScratch()
	defer PutScratch(sc)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(60)
		d := randomLevelDigraph(rng, n, rng.Intn(8*n))
		c := FromDigraph(d)
		src := rng.Intn(n)

		wantDist, wantPrev := d.ShortestPaths(src)
		gotDist := make([]float64, n)
		gotPrev := make([]int32, n)
		c.ShortestPathsInto(src, gotDist, gotPrev, sc)

		for v := 0; v < n; v++ {
			//tmedbvet:ignore floateq differential test requires bitwise-identical distances, not tolerant agreement
			if gotDist[v] != wantDist[v] && !(math.IsInf(gotDist[v], 1) && math.IsInf(wantDist[v], 1)) {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, gotDist[v], wantDist[v])
			}
			if int(gotPrev[v]) != wantPrev[v] {
				t.Fatalf("trial %d: prev[%d] = %d, want %d (dist %v)", trial, v, gotPrev[v], wantPrev[v], gotDist[v])
			}
		}

		// Path reconstruction agrees too.
		for probe := 0; probe < 3; probe++ {
			dst := rng.Intn(n)
			p1 := PathTo(wantPrev, src, dst)
			p2 := PathTo32(gotPrev, src, dst)
			if len(p1) != len(p2) {
				t.Fatalf("trial %d: path lengths differ: %v vs %v", trial, p1, p2)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("trial %d: paths differ: %v vs %v", trial, p1, p2)
				}
			}
		}
	}
	if sc.Pops == 0 || sc.Pushes == 0 {
		t.Fatalf("scratch counters not accumulating: %+v", sc)
	}
}

// TestBucketDijkstraZeroWeightPlateau exercises the all-zero-weight
// corner (bucket width degenerates): every reachable vertex sits at
// distance 0 and the tie-break settles vertices in index order.
func TestBucketDijkstraZeroWeightPlateau(t *testing.T) {
	n := 30
	d := New(n)
	for u := n - 1; u > 0; u-- {
		d.AddEdge(0, u, 0)
		d.AddEdge(u, u-1, 0)
	}
	c := FromDigraph(d)
	wantDist, wantPrev := d.ShortestPaths(0)
	gotDist := make([]float64, n)
	gotPrev := make([]int32, n)
	c.ShortestPathsInto(0, gotDist, gotPrev, nil)
	for v := 0; v < n; v++ {
		//tmedbvet:ignore floateq differential test requires bitwise-identical distances, not tolerant agreement
		if gotDist[v] != wantDist[v] || int(gotPrev[v]) != wantPrev[v] {
			t.Fatalf("v%d: got (%g,%d) want (%g,%d)", v, gotDist[v], gotPrev[v], wantDist[v], wantPrev[v])
		}
	}
}

// TestTransposeMatchesReference pins the transpose edge order against
// the order the Steiner solver's reverse graph was historically built
// in: iterate sources ascending, append to the head's list.
func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		d := randomLevelDigraph(rng, n, rng.Intn(5*n))
		want := New(n)
		for u := 0; u < n; u++ {
			for _, e := range d.Out(u) {
				want.AddEdge(e.To, u, e.W)
			}
		}
		got := FromDigraph(d).Transpose(nil)
		ref := FromDigraph(want)
		if got.M() != ref.M() {
			t.Fatalf("edge count %d want %d", got.M(), ref.M())
		}
		for i := range got.To {
			if got.To[i] != ref.To[i] || got.W[i] != ref.W[i] {
				t.Fatalf("trial %d: transpose edge %d: (%d,%g) want (%d,%g)", trial, i, got.To[i], got.W[i], ref.To[i], ref.W[i])
			}
		}
		for u := 0; u <= n; u++ {
			if got.Off[u] != ref.Off[u] {
				t.Fatalf("trial %d: Off[%d] = %d want %d", trial, u, got.Off[u], ref.Off[u])
			}
		}
	}
}

// TestCSRReachableMatchesDigraph checks the flat reachability sweep.
func TestCSRReachableMatchesDigraph(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		d := randomLevelDigraph(rng, n, rng.Intn(3*n))
		c := FromDigraph(d)
		src := rng.Intn(n)
		want := d.Reachable(src)
		got := c.Reachable(src)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("reach[%d] = %v, want %v", v, got[v], want[v])
			}
		}
	}
}

// TestBuildCSRPayloadPermutation checks BuildCSR's stable grouping and
// the pos mapping that carries per-edge payloads across the sort.
func TestBuildCSRPayloadPermutation(t *testing.T) {
	var el EdgeList
	el.Add(2, 0, 1.5)
	el.Add(0, 1, 0)
	el.Add(2, 1, 2.5)
	el.Add(0, 2, 3)
	el.Add(1, 0, 0.5)
	g, pos := BuildCSR(3, &el, nil)
	if g.N() != 3 || g.M() != 5 {
		t.Fatalf("size: %d/%d", g.N(), g.M())
	}
	// Per-vertex order must preserve Add order: vertex 0 → (1,0),(2,3);
	// vertex 1 → (0,0.5); vertex 2 → (0,1.5),(1,2.5).
	wantTo := []int32{1, 2, 0, 0, 1}
	wantW := []float64{0, 3, 0.5, 1.5, 2.5}
	for i := range wantTo {
		if g.To[i] != wantTo[i] || g.W[i] != wantW[i] {
			t.Fatalf("edge %d: (%d,%g) want (%d,%g)", i, g.To[i], g.W[i], wantTo[i], wantW[i])
		}
	}
	// pos maps list order to CSR slots.
	wantPos := []int32{3, 0, 4, 1, 2}
	for i, p := range pos {
		if p != wantPos[i] {
			t.Fatalf("pos[%d] = %d, want %d", i, p, wantPos[i])
		}
	}
	if g.MaxW() != 3 {
		t.Fatalf("maxW = %g, want 3", g.MaxW())
	}
}

// firstBitDiff returns the first index where two distance vectors
// differ bit for bit, or -1 when they are identical.
func firstBitDiff(a, b []float64) int {
	for v := range a {
		if math.Float64bits(a[v]) != math.Float64bits(b[v]) {
			return v
		}
	}
	return -1
}

// TestShortestDistMatchesPaths is the differential test for the
// distances-only Dijkstra: on random graphs it must write bit-for-bit
// the labels ShortestPathsInto writes. The weight families cover
// zero-weight plateaus (the auxiliary graph's wait and coverage edges),
// weights a large base distance absorbs in rounding, and generic
// continuous weights; every graph carries self-loops, parallel edges
// and vertices no edge reaches.
func TestShortestDistMatchesPaths(t *testing.T) {
	families := []struct {
		name    string
		weights []float64
	}{
		{"plateaus", []float64{0, 0, 0, 0.5, 1, 1, 2.25, 4, 7.5}},
		// 0x1p56 has an ulp of 16: 1 and 8 vanish when added to it, 16
		// survives, so closures form on non-zero weights too.
		{"absorbed", []float64{0x1p56, 0x1p56, 0, 1, 8, 16, 0.25, 24}},
		{"continuous", nil},
	}
	rng := rand.New(rand.NewSource(12))
	sc := GetScratch()
	defer PutScratch(sc)
	for _, fam := range families {
		weight := func() float64 {
			if fam.weights == nil {
				return rng.Float64() * 10
			}
			return fam.weights[rng.Intn(len(fam.weights))]
		}
		for trial := 0; trial < 150; trial++ {
			n := 2 + rng.Intn(80)
			reach := n - rng.Intn(n/2+1) // vertices >= reach get no in-edges
			d := New(n)
			for k := rng.Intn(6 * n); k > 0; k-- {
				u, v := rng.Intn(n), rng.Intn(reach)
				d.AddEdge(u, v, weight())
				if rng.Intn(8) == 0 {
					d.AddEdge(u, v, weight()) // parallel edge
				}
				if rng.Intn(8) == 0 {
					d.AddEdge(u, u, weight()) // self-loop
				}
			}
			c := FromDigraph(d)
			src := rng.Intn(n)
			want := make([]float64, n)
			c.ShortestPathsInto(src, want, make([]int32, n), nil)
			got := make([]float64, n)
			sc.Pops, sc.ZeroSettles = 0, 0
			c.ShortestDistInto(src, got, sc)
			if v := firstBitDiff(got, want); v >= 0 {
				t.Fatalf("%s trial %d: dist[%d] = %v, want %v", fam.name, trial, v, got[v], want[v])
			}
			// Every reachable vertex is settled exactly once, either from
			// a bucket or from the closure stack.
			settled := int64(0)
			for _, x := range want {
				if !math.IsInf(x, 1) {
					settled++
				}
			}
			if sc.Pops+sc.ZeroSettles != settled {
				t.Fatalf("%s trial %d: pops %d + zero settles %d != %d reachable",
					fam.name, trial, sc.Pops, sc.ZeroSettles, settled)
			}
		}
	}
}

// TestShortestDistAbsorbedClosure pins the closure on weights rounding
// absorbs: 1 and 8 vanish against 2^56 (ulp 16; 8 is the ties-to-even
// half), so x and y settle from the closure stack with the hub's label,
// while the 16-weight edge reaches z through a bucket.
func TestShortestDistAbsorbedClosure(t *testing.T) {
	const src, hub, x, y, z = 0, 1, 2, 3, 4
	d := New(5)
	d.AddEdge(src, hub, 0x1p56)
	d.AddEdge(hub, x, 1)
	d.AddEdge(x, y, 8)
	d.AddEdge(y, z, 16)
	d.AddEdge(hub, z, 64)
	c := FromDigraph(d)
	want := make([]float64, 5)
	c.ShortestPathsInto(src, want, make([]int32, 5), nil)
	sc := new(DijkstraScratch)
	got := make([]float64, 5)
	c.ShortestDistInto(src, got, sc)
	if v := firstBitDiff(got, want); v >= 0 {
		t.Fatalf("dist[%d] = %v, want %v", v, got[v], want[v])
	}
	if got[y] != 0x1p56 || got[z] != 0x1p56+16 {
		t.Fatalf("labels %v: want y at 2^56 and z at 2^56+16", got)
	}
	if sc.ZeroSettles != 2 || sc.Pops != 3 {
		t.Fatalf("zero settles %d, pops %d: want 2 (x, y) and 3 (src, hub, z)", sc.ZeroSettles, sc.Pops)
	}
}

// TestShortestDistIntoAllocs pins the distances-only Dijkstra's
// allocation contract: with a warmed scratch it allocates nothing.
func TestShortestDistIntoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := FromDigraph(randomLevelDigraph(rng, 400, 2400))
	dist := make([]float64, c.N())
	sc := GetScratch()
	defer PutScratch(sc)
	c.ShortestDistInto(0, dist, sc) // grow buckets and closure stack
	allocs := testing.AllocsPerRun(100, func() {
		c.ShortestDistInto(0, dist, sc)
	})
	if allocs != 0 {
		t.Fatalf("ShortestDistInto with a warmed scratch: %v allocs/run, want 0", allocs)
	}
}
