package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro"
)

// t0 is the broadcast release time of every instance: late enough in
// the synthetic 17000 s trace that the contact ramp-up is over.
const t0 = 9000

// instance is one broadcast to plan: a synthetic trace, a source and a
// delay constraint. The generator only emits instances whose every node
// is reachable within the delay, so an IncompleteError is a failure.
type instance struct {
	n         int
	traceSeed int64
	trace     *tmedb.Trace
	src       int
	delay     float64
	alg       string // eedcb | fr-eedcb | greed | rand | fr-greed | fr-rand
	// randSeed drives the RAND planners.
	randSeed int64
}

func (in *instance) deadline() float64 { return t0 + in.delay }

// graph materializes a fresh Rayleigh-fading graph of the instance. Each
// call returns a graph no planner has seen, so the process-wide DTS and
// auxiliary-graph memos, keyed by graph identity, miss on it.
func (in *instance) graph() *tmedb.Graph {
	return in.trace.ToTVEG(0, tmedb.DefaultParams(), tmedb.Rayleigh)
}

// class is a block of instances of one shape in a workload's mix.
type class struct {
	n     int
	delay float64
	count int
}

// genInstances draws count instances per class from rng, alternating the
// given planners. The classes fix the mix of sizes. Within a class the
// generator draws three reachable candidates per instance and keeps the
// ones nearest the median by the number of trace contacts in the
// broadcast window. Solve time follows that contact count, so trimming
// the sparsest and densest draws keeps different seeds measuring the
// same amount of work.
func genInstances(rng *rand.Rand, classes []class, algs []string) ([]*instance, error) {
	var out []*instance
	for _, c := range classes {
		type cand struct {
			in       *instance
			contacts int
		}
		cands := make([]cand, 3*c.count)
		for k := range cands {
			in, err := reachableInstance(rng, c.n, c.delay)
			if err != nil {
				return nil, err
			}
			cands[k] = cand{in, windowContacts(in)}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].contacts < cands[b].contacts })
		// Keep the count candidates in the middle.
		for _, cd := range cands[c.count : 2*c.count] {
			cd.in.alg = algs[len(out)%len(algs)]
			out = append(out, cd.in)
		}
	}
	return out, nil
}

// inputDigest fingerprints the instances a run plans, so two commits
// can be checked to have measured the same inputs.
func inputDigest(insts []*instance) string {
	parts := make([][]byte, len(insts))
	for i, in := range insts {
		parts[i] = fmt.Appendf(nil, "%d/%d/%d/%g/%s/%d", in.n, in.traceSeed, in.src, in.delay, in.alg, in.randSeed)
	}
	return digest(parts)
}

// windowContacts counts the trace contacts that overlap the instance's
// broadcast window.
func windowContacts(in *instance) int {
	n := 0
	for _, c := range in.trace.Contacts {
		if c.Start < in.deadline() && c.End > t0 {
			n++
		}
	}
	return n
}

// reachableInstance draws traces and sources until every node can be
// reached from the source within the window.
func reachableInstance(rng *rand.Rand, n int, delay float64) (*instance, error) {
	for attempt := 0; attempt < 200; attempt++ {
		in := &instance{n: n, traceSeed: rng.Int63(), src: rng.Intn(n), delay: delay, randSeed: rng.Int63()}
		in.trace = tmedb.GenerateTrace(tmedb.TraceOptions{N: n}, in.traceSeed)
		if fullyReachable(in) {
			return in, nil
		}
	}
	return nil, fmt.Errorf("no fully reachable instance with n=%d delay=%g", n, delay)
}

// fullyReachable reports whether every node can be reached from the
// source within the instance's window.
func fullyReachable(in *instance) bool {
	for _, ok := range in.graph().Graph.Reachability(tmedb.NodeID(in.src), t0, in.deadline()) {
		if !ok {
			return false
		}
	}
	return true
}

// planner returns the facade scheduler for alg.
func planner(alg string, seed int64, workers int, rec *tmedb.Recorder) tmedb.Scheduler {
	switch alg {
	case "eedcb":
		return tmedb.EEDCB{Workers: workers, Obs: rec}
	case "fr-eedcb":
		return tmedb.FREEDCB{Workers: workers, Obs: rec}
	case "greed":
		return tmedb.Greedy{Obs: rec}
	case "rand":
		return tmedb.Random{Seed: seed, Obs: rec}
	case "fr-greed":
		return tmedb.FRGreedy{Workers: workers, Obs: rec}
	default:
		return tmedb.FRRandom{Seed: seed, Workers: workers, Obs: rec}
	}
}

// plannerView is the graph alg plans on, and so the graph its schedule
// must be feasible on: the fading-aware FR planners plan on the true
// channel, the others on the static view.
func plannerView(g *tmedb.Graph, alg string) *tmedb.Graph {
	if strings.HasPrefix(alg, "fr-") {
		return g
	}
	return g.WithModel(tmedb.Static)
}

// checkSchedule verifies a planned schedule: the planner reported every
// node covered, and the schedule passes the four feasibility conditions
// on the planner's view. It returns the canonical schedule encoding.
func checkSchedule(g *tmedb.Graph, in *instance, s tmedb.Schedule, planErr error) ([]byte, error) {
	if planErr != nil {
		return nil, fmt.Errorf("%s on a fully reachable instance: %w", in.alg, planErr)
	}
	if err := tmedb.CheckFeasible(plannerView(g, in.alg), s, tmedb.NodeID(in.src), in.deadline(), inf); err != nil {
		return nil, fmt.Errorf("%s schedule infeasible: %w", in.alg, err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// plannedDelivery is the expected share of nodes the schedule informs by
// the deadline on the true fading channel (Eq. 6).
func plannedDelivery(g *tmedb.Graph, in *instance, s tmedb.Schedule) float64 {
	var sum float64
	for i := 0; i < in.n; i++ {
		sum += 1 - tmedb.UninformedProb(g, s, tmedb.NodeID(in.src), tmedb.NodeID(i), in.deadline()-g.Tau())
	}
	return sum / float64(in.n)
}
