package sim

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/schedule"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// perTrialEvaluate is EvaluateObs as it was before the link table: every
// trial re-evaluates ρ_τ and ψ for each (transmission, neighbour) pair.
// It is the reference the table-driven loop must reproduce bit for bit.
func perTrialEvaluate(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, rng *rand.Rand, rec *obs.Recorder) Result {
	ordered := make(schedule.Schedule, len(s))
	copy(ordered, s)
	ordered.SortByTime()
	txFired := rec.Counter("sim.tx_fired")
	txMuted := rec.Counter("sim.tx_muted")
	rxOK := rec.Counter("sim.rx")
	rxFailed := rec.Counter("sim.rx_failed")

	gamma := g.Params.GammaTh
	tau := g.Tau()
	res := Result{PlannedEnergy: ordered.NormalizedCost(gamma), Trials: trials, Workers: 1}
	var sumDelivery, sumSqDelivery, sumEnergy float64
	recvAt := make([]float64, g.N())
	for trial := 0; trial < trials; trial++ {
		for i := range recvAt {
			recvAt[i] = math.Inf(1)
		}
		recvAt[src] = math.Inf(-1)
		var energy float64
		for _, x := range ordered {
			if recvAt[x.Relay] > x.T+schedule.TimeTol {
				txMuted.Inc()
				continue
			}
			txFired.Inc()
			energy += x.W
			for _, j := range g.EverNeighbors(x.Relay) {
				if recvAt[j] <= x.T || !g.RhoTau(x.Relay, j, x.T) {
					continue
				}
				failure := g.EDAt(x.Relay, j, x.T).FailureProb(x.W)
				if failure <= 0 || rng.Float64() >= failure {
					rxOK.Inc()
					if t := x.T + tau; t < recvAt[j] {
						recvAt[j] = t
					}
				} else {
					rxFailed.Inc()
				}
			}
		}
		delivered := 0
		for _, t := range recvAt {
			if !math.IsInf(t, 1) {
				delivered++
			}
		}
		ratio := float64(delivered) / float64(g.N())
		sumDelivery += ratio
		sumSqDelivery += ratio * ratio
		sumEnergy += energy / gamma
	}
	n := float64(trials)
	res.MeanDelivery = sumDelivery / n
	res.MeanEnergy = sumEnergy / n
	if trials > 1 {
		variance := (sumSqDelivery - sumDelivery*sumDelivery/n) / (n - 1)
		if variance > 0 {
			res.StdDelivery = math.Sqrt(variance)
		}
	}
	return res
}

// perTrialParallel is EvaluateParallelObs over perTrialEvaluate.
func perTrialParallel(g *tveg.Graph, s schedule.Schedule, src tvg.NodeID, trials int, seed int64, workers int, rec *obs.Recorder) Result {
	if workers <= 1 {
		return perTrialEvaluate(g, s, src, trials, rand.New(rand.NewSource(seed)), rec)
	}
	counts := parallel.SplitCounts(trials, workers)
	results := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = perTrialEvaluate(g, s, src, counts[w], rand.New(rand.NewSource(parallel.SplitSeed(seed, w))), rec)
		}(w)
	}
	wg.Wait()
	return mergeResults(results)
}

// randomCase builds a random contact graph and a schedule whose costs
// straddle the links' minimum costs, so fading receptions both succeed
// and fail, and whose relays are often not yet informed when they are
// due to transmit (muted relays).
func randomCase(rng *rand.Rand, model tveg.Model, tau float64) (*tveg.Graph, schedule.Schedule) {
	const n = 9
	g := tveg.New(n, iv(0, 1000), tau, tveg.DefaultParams(), model)
	for c := 0; c < 30; c++ {
		i, j := tvg.NodeID(rng.Intn(n)), tvg.NodeID(rng.Intn(n))
		if i == j {
			continue
		}
		start := float64(rng.Intn(800))
		g.AddContact(i, j, iv(start, start+float64(20+rng.Intn(200))), float64(1+rng.Intn(25)))
	}
	var s schedule.Schedule
	for k := 0; k < 14; k++ {
		relay := tvg.NodeID(rng.Intn(n))
		t := float64(rng.Intn(900))
		w := 1e-16
		if lv := g.WithModel(tveg.Static).DCS(relay, t); len(lv) > 0 {
			w = lv[rng.Intn(len(lv))].W * (0.5 + rng.Float64())
		}
		s = append(s, schedule.Transmission{Relay: relay, T: t, W: w})
	}
	return g, s
}

var simCounters = []string{"sim.tx_fired", "sim.tx_muted", "sim.rx", "sim.rx_failed"}

// TestLinkTableMatchesPerTrialLoop pins the table-driven Monte Carlo
// against the per-trial loop: bitwise-equal Result and equal counters
// on static and Rayleigh graphs, with τ = 0 and τ > 0, for 1 and 2
// workers.
func TestLinkTableMatchesPerTrialLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, model := range []tveg.Model{tveg.Static, tveg.RayleighFading} {
		for _, tau := range []float64{0, 7} {
			var muted, failed int64
			for c := 0; c < 12; c++ {
				g, s := randomCase(rng, model, tau)
				src := tvg.NodeID(rng.Intn(g.N()))
				seed := rng.Int63()
				for _, workers := range []int{1, 2} {
					gotRec, wantRec := obs.New(), obs.New()
					got := EvaluateParallelObs(g, s, src, 200, seed, workers, gotRec)
					want := perTrialParallel(g, s, src, 200, seed, workers, wantRec)
					if got != want {
						t.Fatalf("%v τ=%g case %d workers %d: table %+v, per-trial %+v", model, tau, c, workers, got, want)
					}
					for _, name := range simCounters {
						if a, b := gotRec.Counter(name).Value(), wantRec.Counter(name).Value(); a != b {
							t.Fatalf("%v τ=%g case %d workers %d: %s = %d, per-trial %d", model, tau, c, workers, name, a, b)
						}
					}
					muted += gotRec.Counter("sim.tx_muted").Value()
					failed += gotRec.Counter("sim.rx_failed").Value()
				}
			}
			// The cases must exercise muted relays, and fading ones
			// failed receptions, or the comparison proves little.
			if muted == 0 || (model.Fading() && failed == 0) {
				t.Fatalf("%v τ=%g: weak cases, %d muted transmissions, %d failed receptions", model, tau, muted, failed)
			}
		}
	}
}

// TestEvaluateAllocsIndependentOfTrials guards the point of the link
// table: an evaluation allocates while it builds the table, and the
// trial loop allocates nothing, so allocations do not grow with trials.
func TestEvaluateAllocsIndependentOfTrials(t *testing.T) {
	g, s := randomCase(rand.New(rand.NewSource(9)), tveg.RayleighFading, 3)
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(20, func() {
			EvaluateObs(g, s, 0, trials, rand.New(rand.NewSource(1)), nil)
		})
	}
	if few, many := allocs(1), allocs(500); many > few {
		t.Fatalf("allocs per EvaluateObs: %v at 1 trial, %v at 500 trials", few, many)
	}
}
