package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro"
	"repro/internal/auxgraph"
	"repro/internal/dts"
	"repro/internal/obs"
	"repro/internal/steiner"
)

// planColdClasses is the plan-cold mix, from about 40 ms to over a
// second per solve. The class sizes put the median solve in the middle
// of the second class, the 10th percentile in the first and the 90th
// percentile in the middle of the fourth, so every percentile averages
// over many traces. One pass takes three to six seconds on two cores.
var planColdClasses = []class{
	{n: 20, delay: 2000, count: 16},
	{n: 20, delay: 3000, count: 16},
	{n: 20, delay: 4000, count: 8},
	{n: 25, delay: 3000, count: 6},
	{n: 30, delay: 6000, count: 2},
}

var smallClasses = []class{{n: 12, delay: 1500, count: 2}}

// runPlanCold solves EEDCB and FR-EEDCB instances one at a time, each on
// a graph the process has never planned on, in whole passes over the
// seeded instance set until the time budget is spent.
func runPlanCold(cfg config) (*outcome, error) {
	out := newOutcome()
	classes := planColdClasses
	if cfg.small {
		classes = smallClasses
	}
	var insts []*instance
	err := timeSetup(out, func() (err error) {
		insts, err = genInstances(rand.New(rand.NewSource(cfg.seed)), classes, []string{"eedcb", "fr-eedcb"})
		return err
	})
	if err != nil {
		return nil, err
	}

	ref := make([][]byte, len(insts))
	var energy, delivery, opMS, tracedMS, untracedMS []float64
	var layer layerMS
	var first, all *layerTally
	var cache costCacheRate
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		var rec *obs.Recorder
		if cfg.traced {
			rec = obs.New()
		}
		var layered []steiner.Solution
		for i, in := range insts {
			out.attempted++
			g := in.graph()
			t := time.Now()
			s, err := planner(in.alg, 0, cfg.workers, nil).Schedule(g, tmedb.NodeID(in.src), t0, in.deadline())
			d := ms(time.Since(t))
			enc, err := checkSchedule(g, in, s, err)
			switch {
			case err != nil:
				out.fail("plan-cold instance %d: %v", i, err)
				d = cfg.seconds * 1000
			case pass == 0:
				ref[i] = enc
				energy = append(energy, s.NormalizedCost(g.Params.GammaTh))
				delivery = append(delivery, plannedDelivery(g, in, s))
			case string(enc) != string(ref[i]):
				out.fail("plan-cold instance %d: schedule differs from the first pass", i)
			}
			opMS = append(opMS, d)
			if !cfg.traced {
				continue
			}
			untracedMS = append(untracedMS, d)
			sol, tms, err := tracedSolve(cfg, in, rec, &cache, &layer)
			if err != nil {
				out.fail("plan-cold traced instance %d: %v", i, err)
			}
			tracedMS = append(tracedMS, tms)
			layered = append(layered, sol)
		}
		if !cfg.traced {
			continue
		}
		rep := rec.Snapshot(nil)
		if err := crossCheckSteiner(rep, layered); err != nil {
			out.fail("plan-cold pass %d: %v", pass, err)
		}
		if first == nil {
			first, all = newLayerTally(), newLayerTally()
			first.add(rep)
		}
		all.add(rep)
	}
	elapsed := time.Since(start)

	out.detail["digest"] = digest(ref)
	out.detail["instances"] = len(insts)
	out.detail["inputs"] = inputDigest(insts)
	out.metrics["energy_norm"] = geomean(energy)
	out.metrics["delivery_ratio"] = mean(delivery)
	if cfg.traced {
		n := len(tracedMS)
		out.metrics["dts.build_ms"] = layer.dts / float64(n)
		out.metrics["auxgraph.build_ms"] = layer.aux / float64(n)
		out.metrics["steiner.solve_ms"] = layer.steiner / float64(n)
		out.metrics["tveg.costcache.hit_rate"] = cache.rate()
		out.counts["plan.solves"] = int64(len(insts))
		setLayers(out, first, all, n)
		traced := mean(tracedMS)
		out.metrics["trace.op_ms"] = traced
		// The remainder subtracts the layer spans of the same traced
		// solves, not the layered calls' times, so it cannot go negative.
		out.metrics["trace.remainder_ms"] = traced - all.solveLayersMS()/float64(n)
		out.metrics["trace.overhead_share"] = traced/mean(untracedMS) - 1
	}
	setLatency(out, opMS, elapsed)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	out.metrics["mem.peak_mb"] = rss
	return out, nil
}

// layerMS sums the wall time of the layered calls, in milliseconds.
type layerMS struct{ dts, aux, steiner float64 }

// tracedSolve plans the instance twice more, each time on a fresh
// graph: once through the facade with the recorder attached (timed as
// the traced solve), and once layer by layer through the public entry
// points dts.Build, auxgraph.Build and the Steiner solver, timing each
// call. It returns the layered Steiner solution for the cross-check
// against the facade's steiner span.
func tracedSolve(cfg config, in *instance, rec *obs.Recorder, cache *costCacheRate, layer *layerMS) (steiner.Solution, float64, error) {
	g := in.graph()
	t := time.Now()
	s, err := planner(in.alg, 0, cfg.workers, rec).Schedule(g, tmedb.NodeID(in.src), t0, in.deadline())
	tracedMS := ms(time.Since(t))
	if _, err := checkSchedule(g, in, s, err); err != nil {
		return steiner.Solution{}, tracedMS, err
	}
	cache.add(g)

	view := plannerView(in.graph(), in.alg)
	t = time.Now()
	d, err := dts.Build(view.Graph, t0, in.deadline(), dts.Options{Workers: cfg.workers})
	if err != nil {
		return steiner.Solution{}, tracedMS, err
	}
	layer.dts += ms(time.Since(t))
	t = time.Now()
	a, err := auxgraph.Build(view, d, auxgraph.Options{Workers: cfg.workers})
	if err != nil {
		return steiner.Solution{}, tracedMS, err
	}
	layer.aux += ms(time.Since(t))
	t = time.Now()
	solver := steiner.NewSolver(a.G).WithReverse(a.Reverse()).SetWorkers(cfg.workers)
	sol, err := solver.RecursiveGreedy(a.SourceVertex(tmedb.NodeID(in.src)), a.Terminals(), 2)
	solver.Release()
	layer.steiner += ms(time.Since(t))
	return sol, tracedMS, err
}

// crossCheckSteiner compares each layered Steiner solution with the
// cost and edge count the facade recorded on its steiner span.
func crossCheckSteiner(rep obs.Report, layered []steiner.Solution) error {
	if len(rep.Phases) != len(layered) {
		return fmt.Errorf("%d traced solves for %d layered ones", len(rep.Phases), len(layered))
	}
	for i, top := range rep.Phases {
		sp, ok := findPhase(top, "steiner")
		if !ok {
			return fmt.Errorf("solve %d has no steiner span", i)
		}
		cost, _ := sp.Attrs["solution_cost"].(float64)
		edges, _ := sp.Attrs["solution_edges"].(float64)
		// Solution.Cost sums its edge map in iteration order, so two sums
		// over one edge set may differ in the last bits.
		if math.Abs(cost-layered[i].Cost()) > 1e-9*cost || int(edges) != layered[i].NumEdges() {
			fmt.Fprintf(os.Stderr, "perfbench: steiner span cost=%g edges=%g, layered cost=%g edges=%d\n",
				cost, edges, layered[i].Cost(), layered[i].NumEdges())
			return fmt.Errorf("solve %d: layered Steiner solution differs from the facade's", i)
		}
	}
	return nil
}

func findPhase(p obs.PhaseReport, name string) (obs.PhaseReport, bool) {
	if p.Name == name {
		return p, true
	}
	for _, c := range p.Children {
		if f, ok := findPhase(c, name); ok {
			return f, true
		}
	}
	return obs.PhaseReport{}, false
}
