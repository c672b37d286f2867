package main

import (
	"repro"
	"repro/internal/obs"
)

// layerTally sums what a set of obs run reports recorded: span wall
// times and attributes by span name, counters, and per-worker pool busy
// time. Nested spans of one name are counted once, at their outermost
// occurrence.
type layerTally struct {
	spanMS   map[string]float64
	attrs    map[string]float64 // "span.attr" -> sum
	counters map[string]int64
	poolBusy map[string][]float64 // per worker slot, ms
	poolTask map[string]int64
	// topMS sums the wall time of the top-level spans: one per
	// planner call.
	topMS float64
}

func newLayerTally() *layerTally {
	return &layerTally{
		spanMS:   map[string]float64{},
		attrs:    map[string]float64{},
		counters: map[string]int64{},
		poolBusy: map[string][]float64{},
		poolTask: map[string]int64{},
	}
}

// add folds one report into the tally.
func (t *layerTally) add(rep obs.Report) {
	var walk func(ps []obs.PhaseReport, open map[string]bool)
	walk = func(ps []obs.PhaseReport, open map[string]bool) {
		for _, p := range ps {
			if !open[p.Name] {
				t.spanMS[p.Name] += p.WallMS
			}
			for k, v := range p.Attrs {
				if f, ok := v.(float64); ok {
					t.attrs[p.Name+"."+k] += f
				}
			}
			inner := map[string]bool{p.Name: true}
			for k := range open {
				inner[k] = true
			}
			walk(p.Children, inner)
		}
	}
	walk(rep.Phases, map[string]bool{})
	for _, p := range rep.Phases {
		t.topMS += p.WallMS
	}
	for k, v := range rep.Counters {
		t.counters[k] += v
	}
	for _, p := range rep.Pools {
		busy := t.poolBusy[p.Name]
		for len(busy) < len(p.BusyMS) {
			busy = append(busy, 0)
		}
		for i, b := range p.BusyMS {
			busy[i] += b
		}
		t.poolBusy[p.Name] = busy
		t.poolTask[p.Name] += p.Tasks
	}
}

// solveLayersMS sums the spans of the four solve layers the traced
// runs name: DTS (cold or patched), auxiliary graph, Steiner and the
// NLP allocation.
func (t *layerTally) solveLayersMS() float64 {
	return t.spanMS["dts"] + t.spanMS["dts-patch"] + t.spanMS["auxgraph"] + t.spanMS["steiner"] + t.spanMS["nlp-alloc"]
}

// rate is hits/(hits+misses) of a counter pair (0 when neither fired).
func (t *layerTally) rate(prefix string) float64 {
	h, m := t.counters[prefix+".hits"], t.counters[prefix+".misses"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// pool returns a pool's summed busy time and its balance: the least
// busy worker slot's time over the busiest one's (1 = even).
func (t *layerTally) pool(name string) (busyMS, balance float64) {
	busy := t.poolBusy[name]
	if len(busy) == 0 {
		return 0, 0
	}
	lo, hi := busy[0], busy[0]
	for _, b := range busy {
		busyMS += b
		lo = min(lo, b)
		hi = max(hi, b)
	}
	if hi > 0 {
		balance = lo / hi
	}
	return busyMS, balance
}

// perLayerCounts are the work counts that repeat exactly for a fixed
// seed. graph.arena.allocs is reported with them but is not among them:
// the arena sits on a sync.Pool, which the garbage collector may empty
// at any time.
var perLayerCounts = []string{
	"steiner.dijkstra.fwd",
	"steiner.dijkstra.bwd",
	"steiner.level2.scans",
	"steiner.level2.vertices_scanned",
	"steiner.level2.pruned",
	"graph.bucketq.pops",
	"graph.bucketq.scanned",
	"nlp.greedy.repairs",
	"nlp.descent.sweeps",
	"sim.tx_fired",
	"sim.rx",
}

// setLayers stores the per-layer metrics of a traced run. first is the
// tally of the run's first pass, whose counts repeat exactly; all is the
// tally of every traced pass, and ops the number of operations in it,
// which per-operation times are averaged over. Metrics a workload times
// from outside are set by the workload and kept.
func setLayers(out *outcome, first, all *layerTally, ops int) {
	for _, name := range perLayerCounts {
		out.counts[name] = first.counters[name]
	}
	out.counts["dts.points"] = int64(first.attrs["dts.total_points"])
	out.counts["auxgraph.vertices"] = int64(first.attrs["auxgraph.vertices"])
	out.counts["auxgraph.edges"] = int64(first.attrs["auxgraph.edges"])
	out.counts["sim.trials"] = first.poolTask["sim.evaluate"]
	for name, v := range out.counts {
		out.metrics[name] = float64(v)
	}
	out.metrics["graph.arena.allocs"] = float64(first.counters["graph.arena.allocs"])

	perOp := func(x float64) float64 { return x / float64(max(ops, 1)) }
	setDefault := func(name string, v float64) {
		if _, ok := out.metrics[name]; !ok {
			out.metrics[name] = v
		}
	}
	setDefault("steiner.solve_ms", perOp(all.spanMS["steiner"]))
	setDefault("auxgraph.build_ms", perOp(all.spanMS["auxgraph"]))
	setDefault("dts.build_ms", perOp(all.spanMS["dts"]+all.spanMS["dts-patch"]))
	setDefault("nlp.alloc_ms", perOp(all.spanMS["nlp-alloc"]))
	dij, dijBal := all.pool("steiner.dijkstra")
	scan, scanBal := all.pool("steiner.scan")
	dcs, dcsBal := all.pool("auxgraph.dcs")
	out.metrics["steiner.busy_ms"] = perOp(dij + scan)
	out.metrics["parallel.steiner.dijkstra.busy_ms"] = perOp(dij)
	out.metrics["parallel.steiner.dijkstra.balance"] = dijBal
	out.metrics["parallel.steiner.scan.busy_ms"] = perOp(scan)
	out.metrics["parallel.steiner.scan.balance"] = scanBal
	out.metrics["parallel.auxgraph.dcs.busy_ms"] = perOp(dcs)
	out.metrics["parallel.auxgraph.dcs.balance"] = dcsBal
	out.metrics["dts.memo.hit_rate"] = all.rate("dts.memo")
	out.metrics["dts.patch.hit_rate"] = all.rate("dts.patch")
	out.metrics["auxgraph.memo.hit_rate"] = all.rate("auxgraph.memo")
	out.metrics["auxgraph.patch.hit_rate"] = all.rate("auxgraph.patch")
	for name := range perLayerUnits {
		setDefault(name, 0)
	}
}

// costCacheRate sums the MinCost and DCS cache hits and misses of the
// graphs a traced pass planned on.
type costCacheRate struct{ hits, misses int64 }

func (c *costCacheRate) add(g *tmedb.Graph) {
	if st, ok := g.CostCacheStats(); ok {
		c.hits += st.MinCostHits + st.DCSHits
		c.misses += st.MinCostMisses + st.DCSMisses
	}
}

func (c *costCacheRate) rate() float64 {
	if c.hits+c.misses == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.hits+c.misses)
}
