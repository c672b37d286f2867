// Command perfbench is the repository benchmark. It runs one named
// workload for a fixed wall-clock budget, checks every output, and
// prints one JSON result object as the last line of standard output.
//
// Usage (from the repository root, after building; see run.sh):
//
//	perfbench --workload plan-cold|baseline-eval|serve-mix --seed N \
//	          --seconds S --trace 0|1 [--cpuprofile file] [--tmedbd bin]
//	perfbench --write-pool baseline_pool.json
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, gathered by timing calls
// into each layer's public entry points and by reading the spans,
// counters and pool statistics the program's obs recorder already
// keeps. The line before the result records the seed, the schedule
// digest and the sample count behind every percentile.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// inf is the cost bound that disables CheckFeasible's cost condition.
var inf = math.Inf(1)

// config is one benchmark invocation.
type config struct {
	seed    int64
	seconds float64
	traced  bool
	// small shrinks every workload to a few tiny instances (self-test).
	small bool
	// workers bounds every worker pool and the number of clients: at
	// most two, and at most the CPUs available.
	workers int
	// daemon is the tmedbd binary serve-mix starts.
	daemon string
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	// counts are the deterministic work counts of the run's first pass;
	// they must repeat exactly for a fixed seed.
	counts map[string]int64
	// detail is printed on the line before the result.
	detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, counts: map[string]int64{}, detail: map[string]any{}}
}

// fail records one failed operation and why.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
}

// endToEndUnits and perLayerUnits name every metric the benchmark
// reports, with its unit; BENCHMARK.json mirrors them (checked by
// TestBenchmarkJSONMatches).
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"ops_per_s":      "1/s",
	"op_ms.p10":      "ms",
	"op_ms.p50":      "ms",
	"op_ms.p90":      "ms",
	"energy_norm":    "norm",
	"delivery_ratio": "share",
	"ok_share":       "share",
}

var perLayerUnits = map[string]string{
	"mem.peak_mb":                       "MB",
	"steiner.solve_ms":                  "ms",
	"steiner.busy_ms":                   "ms",
	"steiner.dijkstra.fwd":              "count",
	"steiner.dijkstra.bwd":              "count",
	"steiner.level2.scans":              "count",
	"steiner.level2.vertices_scanned":   "count",
	"steiner.level2.pruned":             "count",
	"graph.bucketq.pops":                "count",
	"graph.bucketq.scanned":             "count",
	"graph.arena.allocs":                "count",
	"auxgraph.build_ms":                 "ms",
	"auxgraph.vertices":                 "count",
	"auxgraph.edges":                    "count",
	"auxgraph.memo.hit_rate":            "share",
	"auxgraph.patch.hit_rate":           "share",
	"dts.build_ms":                      "ms",
	"dts.points":                        "count",
	"dts.memo.hit_rate":                 "share",
	"dts.patch.hit_rate":                "share",
	"tveg.costcache.hit_rate":           "share",
	"core.baseline_ms":                  "ms",
	"nlp.alloc_ms":                      "ms",
	"nlp.greedy.repairs":                "count",
	"nlp.descent.sweeps":                "count",
	"sim.evaluate_ms":                   "ms",
	"sim.trials":                        "count",
	"sim.tx_fired":                      "count",
	"sim.rx":                            "count",
	"parallel.steiner.dijkstra.busy_ms": "ms",
	"parallel.steiner.dijkstra.balance": "share",
	"parallel.steiner.scan.busy_ms":     "ms",
	"parallel.steiner.scan.balance":     "share",
	"parallel.auxgraph.dcs.busy_ms":     "ms",
	"parallel.auxgraph.dcs.balance":     "share",
	"tmedbd.server_ms":                  "ms",
	"tmedbd.queue_wait_ms":              "ms",
	"tmedbd.cache.hit_rate":             "share",
	"tmedbd.edit.reused_share":          "share",
	"tmedbd.edit.rebuilt":               "count",
	"serve.client_overhead_ms":          "ms",
	"serve.hit_ms.p50":                  "ms",
	"serve.cold_ms.p50":                 "ms",
	"serve.edit_ms.p50":                 "ms",
	"trace.op_ms":                       "ms",
	"trace.remainder_ms":                "ms",
	"trace.overhead_share":              "share",
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(cfg config) (*outcome, error){
	"plan-cold":     runPlanCold,
	"baseline-eval": runBaselineEval,
	"serve-mix":     runServeMix,
}

func main() {
	var (
		workload   = flag.String("workload", "", "plan-cold, baseline-eval or serve-mix")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed generates the same instances")
		seconds    = flag.Float64("seconds", 10, "measured wall time per run")
		trace      = flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured phase (traced runs only)")
		daemon     = flag.String("tmedbd", ".bench_build/tmedbd", "tmedbd binary for serve-mix")
		writeTo    = flag.String("write-pool", "", "regenerate the baseline-eval instance pool into this file and exit")
	)
	flag.Parse()
	if *writeTo != "" {
		if err := writePool(*writeTo, min(2, runtime.NumCPU())); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --seconds %g --trace %d\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace == 1,
		workers: min(2, runtime.NumCPU()),
		daemon:  *daemon,
	}
	if *cpuprofile != "" && cfg.traced {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	out, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := emit(os.Stdout, *workload, cfg, out); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// emit prints the detail line and then the result line.
func emit(w *os.File, workload string, cfg config, out *outcome) error {
	units := endToEndUnits
	if cfg.traced {
		units = perLayerUnits
	}
	metrics := map[string]map[string]any{}
	for name, unit := range units {
		v, ok := out.metrics[name]
		if !ok {
			return fmt.Errorf("%s: metric %s not measured", workload, name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s is %g", workload, name, v)
		}
		metrics[name] = map[string]any{"value": v, "unit": unit}
	}
	out.detail["workload"] = workload
	out.detail["seed"] = cfg.seed
	out.detail["traced"] = cfg.traced
	out.detail["counts"] = out.counts
	detail, err := json.Marshal(out.detail)
	if err != nil {
		return err
	}
	res, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", detail, res)
	return err
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// timeSetup runs setup setupRepeats times, keeping the state of the last
// one, and stores the median set-up time as setup_s and every set-up
// time in the detail line. setup releases what an earlier call built.
func timeSetup(out *outcome, setup func() error) error {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
	}
	out.metrics["setup_s"] = quantile(times, 0.5)
	out.detail["setup_s.each"] = times
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values. Planned energies of
// the static and the fading-aware planners differ by orders of
// magnitude and are heavy-tailed across traces; the geometric mean
// weighs every schedule alike instead of letting a few expensive
// fading-aware schedules set the figure.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest fingerprints an ordered list of schedule encodings: equal
// digests on two commits mean byte-identical schedules.
func digest(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak memory: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak memory: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak memory: no VmHWM in /proc/%s/status", pid)
}

// setLatency stores the shared end-to-end operation metrics.
func setLatency(out *outcome, opMS []float64, elapsed time.Duration) {
	out.metrics["op_ms.p10"] = quantile(opMS, 0.1)
	out.metrics["op_ms.p50"] = quantile(opMS, 0.5)
	out.metrics["op_ms.p90"] = quantile(opMS, 0.9)
	out.metrics["ops_per_s"] = float64(len(opMS)) / elapsed.Seconds()
	out.detail["op_ms.p99"] = quantile(opMS, 0.99)
	out.detail["op_ms.samples"] = len(opMS)
	if out.attempted > 0 {
		out.metrics["ok_share"] = float64(out.attempted-out.failed) / float64(out.attempted)
	}
}
