package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/tveg"
	"repro/internal/tvg"
)

// TestObsScheduleInvariance pins the schedule-invariance contract of the
// observability layer (DESIGN.md "Observability"): attaching a recorder
// must not change a single byte of any planned schedule. Recording is
// write-only — no planner reads a metric back — so the instrumented and
// uninstrumented runs must serialize identically, across every algorithm,
// channel model, and worker count.
func TestObsScheduleInvariance(t *testing.T) {
	graphs := map[string]*tveg.Graph{
		"static-chain":   chain(tveg.Static),
		"rayleigh-star":  star(tveg.RayleighFading),
		"static-random":  randomTrace(rand.New(rand.NewSource(7)), 10, tveg.Static, 1000),
		"rayleigh-trace": randomTrace(rand.New(rand.NewSource(7)), 8, tveg.RayleighFading, 1000),
	}
	// with builds each scheduler twice: once disabled (nil recorder) and
	// once recording, with multi-worker pools to also cross-check the
	// parallel instrumented paths.
	type pair struct {
		name      string
		plain, on Scheduler
	}
	rec := func() *obs.Recorder { return obs.New() }
	pairs := []pair{
		{"EEDCB", EEDCB{}, EEDCB{Obs: rec(), Workers: 4}},
		{"GREED", Greedy{}, Greedy{Obs: rec()}},
		{"RAND", Random{Seed: 3}, Random{Seed: 3, Obs: rec()}},
		{"FR-EEDCB", FREEDCB{}, FREEDCB{Obs: rec(), Workers: 4}},
		{"FR-GREED", FRGreedy{}, FRGreedy{Obs: rec(), Workers: 4}},
		{"FR-RAND", FRRandom{Seed: 3}, FRRandom{Seed: 3, Obs: rec(), Workers: 4}},
	}
	for gname, g := range graphs {
		for _, p := range pairs {
			want, errPlain := p.plain.Schedule(g, 0, 0, g.Span().End)
			got, errOn := p.on.Schedule(g, 0, 0, g.Span().End)
			if (errPlain == nil) != (errOn == nil) {
				t.Errorf("%s on %s: error mismatch: plain=%v obs=%v", p.name, gname, errPlain, errOn)
				continue
			}
			wb, err := json.Marshal(want)
			if err != nil {
				t.Fatalf("marshal plain: %v", err)
			}
			gb, err := json.Marshal(got)
			if err != nil {
				t.Fatalf("marshal obs: %v", err)
			}
			if !bytes.Equal(wb, gb) {
				t.Errorf("%s on %s: schedule changed with observability on:\nplain: %s\nobs:   %s",
					p.name, gname, wb, gb)
			}
		}
	}
}

// TestObsPhaseTreeCoversPipeline checks that one instrumented EEDCB run
// produces the documented phase tree: eedcb → dts, auxgraph (with its
// dcs-construct child), steiner.
func TestObsPhaseTreeCoversPipeline(t *testing.T) {
	r := obs.New()
	g := randomTrace(rand.New(rand.NewSource(11)), 8, tveg.Static, 1000)
	if _, err := (EEDCB{Obs: r, Workers: 2}).Schedule(g, 0, 0, 1000); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	phases := r.Snapshot(nil).PhaseWallMS()
	for _, want := range []string{
		"eedcb",
		"eedcb/dts",
		"eedcb/auxgraph",
		"eedcb/auxgraph/dcs-construct",
		"eedcb/steiner",
	} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phase %q missing; got %v", want, keys(phases))
		}
	}
}

// TestObsNLPPhases checks the fading pipeline adds the allocation phases.
func TestObsNLPPhases(t *testing.T) {
	r := obs.New()
	g := star(tveg.RayleighFading)
	if _, err := (FREEDCB{Obs: r, Workers: 2}).Schedule(g, 0, 0, 100); err != nil {
		t.Fatalf("schedule: %v", err)
	}
	phases := r.Snapshot(nil).PhaseWallMS()
	for _, want := range []string{
		"fr-eedcb",
		"fr-eedcb/nlp-alloc",
		"fr-eedcb/nlp-alloc/assemble",
		"fr-eedcb/nlp-alloc/solve",
	} {
		if _, ok := phases[want]; !ok {
			t.Errorf("phase %q missing; got %v", want, keys(phases))
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestCostTableCountsSegmentCosts pins core.dcs.costs: each relay's
// sweep costs a (link, segment) at most once, so a plan's count never
// exceeds the segment total over all nodes; it is the same on every run
// and for every worker count.
func TestCostTableCountsSegmentCosts(t *testing.T) {
	g := randomTrace(rand.New(rand.NewSource(5)), 10, tveg.RayleighFading, 1000)
	segs := 0
	for i := 0; i < g.N(); i++ {
		for _, j := range g.EverNeighbors(tvg.NodeID(i)) {
			segs += len(g.Segments(tvg.NodeID(i), j))
		}
	}
	for _, mk := range []func(*obs.Recorder, int) Scheduler{
		func(rec *obs.Recorder, _ int) Scheduler { return Greedy{Obs: rec} },
		func(rec *obs.Recorder, _ int) Scheduler { return Random{Seed: 5, Obs: rec} },
		func(rec *obs.Recorder, w int) Scheduler { return FRGreedy{Obs: rec, Workers: w} },
		func(rec *obs.Recorder, w int) Scheduler { return FRRandom{Seed: 5, Obs: rec, Workers: w} },
	} {
		costs := func(workers int) int64 {
			rec := obs.New()
			if _, err := mk(rec, workers).Schedule(g, 0, 0, 1000); onlyIncomplete(err) != nil {
				t.Fatal(err)
			}
			return rec.Counter("core.dcs.costs").Value()
		}
		name := mk(nil, 1).Name()
		n := costs(1)
		if n <= 0 || n > int64(segs) {
			t.Errorf("%s: core.dcs.costs = %d, want in [1, %d]", name, n, segs)
		}
		if again := costs(2); again != n {
			t.Errorf("%s: core.dcs.costs = %d at 1 worker, %d at 2", name, n, again)
		}
	}
}
