package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// TestWorkloadsRepeat runs every workload twice at a tiny size, traced,
// and checks that every output check passes, that the deterministic work
// counts repeat exactly, and that the operation counts match the
// workload definition.
func TestWorkloadsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tmedbd and solves instances")
	}
	daemon := filepath.Join(t.TempDir(), "tmedbd")
	build := exec.Command("go", "build", "-o", daemon, "./cmd/tmedbd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build tmedbd: %v\n%s", err, out)
	}
	workers := min(2, runtime.NumCPU())
	small := smallClasses[0].count
	// Each serve-mix client's first pass is two rounds: 2 hits, 2 cold
	// solves and 2 edits, so 4 solves.
	want := map[string]map[string]int64{
		"plan-cold":     {"plan.solves": int64(small)},
		"baseline-eval": {"evaluate.schedules": int64(small * len(baselineAlgs)), "sim.trials": int64(small * len(baselineAlgs) * evalTrials)},
		"serve-mix":     {"serve.requests": int64(workers * firstPassRequests), "serve.solves": int64(workers * 4)},
	}
	nonzero := map[string][]string{
		"plan-cold":     {"steiner.dijkstra.fwd", "steiner.level2.scans", "graph.bucketq.pops", "dts.points", "auxgraph.edges"},
		"baseline-eval": {"dts.points", "sim.tx_fired", "sim.rx", "nlp.greedy.repairs"},
		"serve-mix":     {"steiner.dijkstra.bwd", "graph.bucketq.scanned", "auxgraph.vertices"},
	}
	for name, run := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := config{seed: 7, seconds: 0.001, traced: true, small: true, workers: workers, daemon: daemon}
			var counts []map[string]int64
			for i := 0; i < 2; i++ {
				out, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.failed != 0 {
					t.Fatalf("run %d: %d of %d operations failed", i, out.failed, out.attempted)
				}
				for k, v := range want[name] {
					if out.counts[k] != v {
						t.Errorf("run %d: %s = %d, want %d", i, k, out.counts[k], v)
					}
				}
				for _, k := range nonzero[name] {
					if out.counts[k] == 0 {
						t.Errorf("run %d: %s = 0", i, k)
					}
				}
				counts = append(counts, out.counts)
			}
			if !reflect.DeepEqual(counts[0], counts[1]) {
				t.Errorf("work counts differ between runs:\n%v\n%v", counts[0], counts[1])
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(bench.Workloads), len(workloads))
	}
	for _, c := range []struct {
		declared []metric
		units    map[string]string
	}{{bench.EndToEnd, endToEndUnits}, {bench.PerLayer, perLayerUnits}} {
		got := map[string]string{}
		for _, m := range c.declared {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, c.units) {
			t.Errorf("BENCHMARK.json declares %v, the benchmark reports %v", got, c.units)
		}
	}
}
