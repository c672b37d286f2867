package main

import (
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/sim"
)

// baselineClasses is the baseline-eval mix; every instance is planned by
// all four baselines. The instances come from the committed pool (see
// pool.go), count of its poolSize entries per class.
var baselineClasses = []class{
	{n: 20, delay: 2000, count: 16},
	{n: 20, delay: 3000, count: 16},
	{n: 20, delay: 4000, count: 16},
}

// baselineAlgs plan each instance in this order. GREED and RAND plan on
// the static view of the graph and the FR variants on the fading graph;
// all four share one DTS through the memo, so the first planner of an
// instance builds it and the other three hit.
var baselineAlgs = []string{"greed", "rand", "fr-greed", "fr-rand"}

// evalTrials is the Monte-Carlo trial count per schedule. With a fixed
// trial count, seed and worker count the evaluation is exact.
const evalTrials = 1000

// runBaselineEval plans every instance with the four baselines and
// scores each schedule by Monte-Carlo evaluation, in whole passes over
// the seeded instance set until the time budget is spent.
func runBaselineEval(cfg config) (*outcome, error) {
	out := newOutcome()
	classes := baselineClasses
	if cfg.small {
		classes = smallClasses
	}
	var insts []*instance
	err := timeSetup(out, func() (err error) {
		insts, err = pickFromPool(cfg.seed, classes)
		return err
	})
	if err != nil {
		return nil, err
	}

	ref := make([][]byte, len(insts)*len(baselineAlgs))
	var energy, delivery, opMS, untracedMS, tracedMS []float64
	var planMS, simMS float64
	var first, all *layerTally
	var cache costCacheRate
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start).Seconds() < cfg.seconds; pass++ {
		var rec *obs.Recorder
		if cfg.traced {
			rec = obs.New()
		}
		op := 0
		for i, in := range insts {
			// One fresh graph per visit: the four planners share its DTS.
			g := in.graph()
			var tg *tmedb.Graph
			if cfg.traced {
				tg = in.graph()
			}
			for _, alg := range baselineAlgs {
				run := *in
				run.alg = alg
				out.attempted++
				r, err := planAndEvaluate(cfg, g, &run, nil)
				d := r.planMS + r.simMS
				switch {
				case err != nil:
					out.fail("baseline-eval instance %d %s: %v", i, alg, err)
					d = cfg.seconds * 1000
				case pass == 0:
					ref[op] = r.enc
					energy = append(energy, r.energy)
					delivery = append(delivery, r.res.MeanDelivery)
				case string(r.enc) != string(ref[op]):
					out.fail("baseline-eval instance %d %s: schedule differs from the first pass", i, alg)
				}
				op++
				opMS = append(opMS, d)
				if !cfg.traced {
					continue
				}
				untracedMS = append(untracedMS, d)
				tr, err := planAndEvaluate(cfg, tg, &run, rec)
				if err != nil {
					out.fail("baseline-eval traced instance %d %s: %v", i, alg, err)
				}
				tracedMS = append(tracedMS, tr.planMS+tr.simMS)
				planMS += tr.planMS
				simMS += tr.simMS
			}
			if cfg.traced {
				cache.add(tg)
			}
		}
		if !cfg.traced {
			continue
		}
		rep := rec.Snapshot(nil)
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
		n := float64(len(tracedMS))
		out.metrics["core.baseline_ms"] = planMS / n
		out.metrics["sim.evaluate_ms"] = simMS / n
		out.metrics["tveg.costcache.hit_rate"] = cache.rate()
		out.counts["evaluate.schedules"] = int64(len(ref))
		setLayers(out, first, all, len(tracedMS))
		traced := mean(tracedMS)
		out.metrics["trace.op_ms"] = traced
		// The planner's own span and the simulator call leave out only
		// the facade's wrapper around each Schedule call.
		out.metrics["trace.remainder_ms"] = traced - all.topMS/n - out.metrics["sim.evaluate_ms"]
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

// evaluated is one planned and scored baseline schedule.
type evaluated struct {
	planMS, simMS float64
	enc           []byte
	energy        float64 // planned, normalized
	res           tmedb.Result
}

// planAndEvaluate plans the instance with its baseline on g, checks the
// schedule, and evaluates it by Monte Carlo on the fading graph, timing
// both steps. rec, when non-nil, receives the planner's spans and the
// simulator's counters and pool statistics.
func planAndEvaluate(cfg config, g *tmedb.Graph, in *instance, rec *obs.Recorder) (evaluated, error) {
	var r evaluated
	start := time.Now()
	s, err := planner(in.alg, in.randSeed, cfg.workers, rec).Schedule(g, tmedb.NodeID(in.src), t0, in.deadline())
	r.planMS = ms(time.Since(start))
	if r.enc, err = checkSchedule(g, in, s, err); err != nil {
		return r, err
	}
	r.energy = s.NormalizedCost(g.Params.GammaTh)
	start = time.Now()
	r.res = sim.EvaluateParallelObs(g, s, tmedb.NodeID(in.src), evalTrials, in.randSeed, cfg.workers, rec)
	r.simMS = ms(time.Since(start))
	return r, nil
}
