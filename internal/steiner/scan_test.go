package steiner

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/parallel"
)

// sortScanLevel2 is the full-sort reference for scanLevel2Range: the
// same two-tier pruning, then every surviving vertex's candidates sorted
// in canonical (d, xi) order and every prefix up to kv evaluated, with
// no early exit.
func sortScanLevel2(k int, distR []float64, rem []int, dTo [][]float64) (int, []int, float64) {
	bestV, bestDensity, bestCost := -1, math.Inf(1), 0.0
	var bestCov []int
	for v := range distR {
		if math.IsInf(distR[v], 1) || distR[v]/float64(k) >= bestDensity {
			continue
		}
		var cands []td
		dmin := math.Inf(1)
		for xi := range rem {
			if d := dTo[xi][v]; !math.IsInf(d, 1) {
				cands = append(cands, td{xi, d})
				dmin = math.Min(dmin, d)
			}
		}
		if len(cands) == 0 {
			continue
		}
		kv := min(k, len(cands))
		if distR[v]/float64(kv)+dmin >= bestDensity {
			continue
		}
		slices.SortFunc(cands, func(a, b td) int {
			return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.xi, b.xi))
		})
		prefix := 0.0
		for kp := 1; kp <= kv; kp++ {
			prefix += cands[kp-1].d
			if dens := (distR[v] + prefix) / float64(kp); dens < bestDensity {
				bestDensity, bestV, bestCost = dens, v, prefix
				bestCov = bestCov[:0]
				for _, c := range cands[:kp] {
					bestCov = append(bestCov, rem[c.xi])
				}
			}
		}
	}
	return bestV, bestCov, bestCost
}

// heapScanLevel2 runs the production scan serially over every vertex.
func heapScanLevel2(k int, distR []float64, rem []int, dTo [][]float64) (int, []int, float64) {
	s := &Solver{cands: make([][]td, 1), covBuf: make([][]int, 1)}
	best := s.scanLevel2Range(k, distR, rem, dTo, 0, parallel.Range{Lo: 0, Hi: len(distR)})
	return best.v, best.cov, best.cost
}

// TestHeapScanMatchesSortReference pins the level-2 heap selection and
// its early exit against the full-sort reference: the same winning
// vertex, covered terminals in the same order, and the bit-identical
// cost. Distances are small integers, so candidate sets are full of
// equal distances and next distances that equal the running prefix
// density exactly — the stop rule's boundary, where scanning must go on.
// A second family draws continuous distances, where the stop rule's
// rounding margin is what keeps the choice exact.
func TestHeapScanMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	families := []struct {
		name string
		dist func() float64
	}{
		{"integer", func() float64 { return float64(rng.Intn(5)) }},
		{"continuous", func() float64 { return rng.Float64() * 3 }},
	}
	for _, fam := range families {
		for trial := 0; trial < 3000; trial++ {
			n := 1 + rng.Intn(12)
			nt := 1 + rng.Intn(10)
			k := 1 + rng.Intn(nt+2)
			distR := make([]float64, n)
			for v := range distR {
				distR[v] = fam.dist()
				if rng.Intn(6) == 0 {
					distR[v] = math.Inf(1)
				}
			}
			rem := make([]int, nt)
			dTo := make([][]float64, nt)
			for xi := range rem {
				rem[xi] = 100 + xi
				dTo[xi] = make([]float64, n)
				for v := range dTo[xi] {
					dTo[xi][v] = fam.dist()
					if rng.Intn(5) == 0 {
						dTo[xi][v] = math.Inf(1)
					}
				}
			}
			wantV, wantCov, wantCost := sortScanLevel2(k, distR, rem, dTo)
			gotV, gotCov, gotCost := heapScanLevel2(k, distR, rem, dTo)
			if gotV != wantV || !slices.Equal(gotCov, wantCov) ||
				math.Float64bits(gotCost) != math.Float64bits(wantCost) {
				t.Fatalf("%s trial %d (k=%d): heap picked (%d, %v, %v), sort reference (%d, %v, %v)",
					fam.name, trial, k, gotV, gotCov, gotCost, wantV, wantCov, wantCost)
			}
		}
	}
}

// TestHeapScanStopBoundary pins the stop rule at equality. Vertex 0's
// prefix densities are 3, 3, 3 and then 3.25: the second and third
// distances equal the best density exactly, so the scan pops through
// the ties before the fourth (4 > 3) stops it; the first prefix keeps
// the win by the strict-less rule. Vertex 1's densities are 2.75, 2.5,
// 2.67 and 2.75: it wins on a tied second distance, and its third
// distance (3 > 2.5) ends its scan.
func TestHeapScanStopBoundary(t *testing.T) {
	distR := []float64{1, 0.5}
	rem := []int{7, 8, 9, 10}
	dTo := [][]float64{
		{3, 2.25},
		{2, 3},
		{3, 2.25},
		{4, 3},
	}
	for k := 1; k <= 4; k++ {
		wantV, wantCov, wantCost := sortScanLevel2(k, distR, rem, dTo)
		gotV, gotCov, gotCost := heapScanLevel2(k, distR, rem, dTo)
		if gotV != wantV || !slices.Equal(gotCov, wantCov) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
			t.Fatalf("k=%d: heap picked (%d, %v, %v), sort reference (%d, %v, %v)",
				k, gotV, gotCov, gotCost, wantV, wantCov, wantCost)
		}
	}
}
