package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro"
)

// baseline-eval draws its instances from a committed pool instead of
// generating them per run. GREED informs the most nodes first, and that
// choice can leave a reachable node whose only timely contact was with
// a relay it informed too late; the schedule is then incomplete by
// design. Keeping only the instances every baseline covers would make
// the selection depend on the planners under test, so a change to a
// baseline would quietly change the inputs. The pool was filtered once,
// when it was written; a run only picks entries from it by seed, and a
// baseline that no longer covers an entry shows as a failed operation.
//
// Regenerate it (this changes every baseline-eval input) with
//
//	(cd perfbench && go run . --write-pool baseline_pool.json)
//
//go:embed baseline_pool.json
var baselinePoolJSON []byte

// pool is the on-disk form of the baseline-eval pool.
type pool struct {
	Classes []poolClass `json:"classes"`
}

type poolClass struct {
	N       int         `json:"n"`
	Delay   float64     `json:"delay"`
	Entries []poolEntry `json:"entries"`
}

// poolEntry is one instance: the trace seed, the source and the seed of
// the RAND planners.
type poolEntry struct {
	TraceSeed int64 `json:"trace_seed"`
	Src       int   `json:"src"`
	RandSeed  int64 `json:"rand_seed"`
}

// poolSize is the number of entries per pool class; a baseline-eval run
// uses count of them.
const poolSize = 32

// poolClasses are the classes the pool holds: the baseline-eval mix and
// the self-test's tiny class.
var poolClasses = append(append([]class(nil), baselineClasses...), smallClasses...)

// pickFromPool selects count entries of each class from the committed
// pool by a seeded shuffle and generates their traces. Every entry must
// still be fully reachable: that depends on the trace generator only.
func pickFromPool(seed int64, classes []class) ([]*instance, error) {
	var p pool
	if err := json.Unmarshal(baselinePoolJSON, &p); err != nil {
		return nil, fmt.Errorf("baseline pool: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	var out []*instance
	for _, c := range classes {
		var entries []poolEntry
		for _, pc := range p.Classes {
			if pc.N == c.n && pc.Delay == c.delay {
				entries = pc.Entries
			}
		}
		if len(entries) < c.count {
			return nil, fmt.Errorf("baseline pool has %d entries with n=%d delay=%g, want %d", len(entries), c.n, c.delay, c.count)
		}
		for _, k := range rng.Perm(len(entries))[:c.count] {
			e := entries[k]
			in := &instance{n: c.n, traceSeed: e.TraceSeed, src: e.Src, delay: c.delay, randSeed: e.RandSeed}
			in.trace = tmedb.GenerateTrace(tmedb.TraceOptions{N: c.n}, e.TraceSeed)
			if !fullyReachable(in) {
				return nil, fmt.Errorf("baseline pool entry %+v (n=%d delay=%g) is no longer fully reachable", e, c.n, c.delay)
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// writePool draws reachable candidates for every pool class, keeps the
// ones all four baselines cover, and writes the poolSize of them nearest
// the median by window contact count to path.
func writePool(path string, workers int) error {
	var p pool
	for ci, c := range poolClasses {
		size := poolSize
		if c.count < poolSize/4 {
			size = 2 * c.count // the self-test class
		}
		rng := rand.New(rand.NewSource(int64(1000 + ci)))
		type cand struct {
			e        poolEntry
			contacts int
		}
		var cands []cand
		for len(cands) < 3*size {
			in, err := reachableInstance(rng, c.n, c.delay)
			if err != nil {
				return err
			}
			if coveredByAll(in, workers) {
				cands = append(cands, cand{poolEntry{in.traceSeed, in.src, in.randSeed}, windowContacts(in)})
			}
		}
		sort.SliceStable(cands, func(a, b int) bool { return cands[a].contacts < cands[b].contacts })
		pc := poolClass{N: c.n, Delay: c.delay}
		for _, cd := range cands[size : 2*size] {
			pc.Entries = append(pc.Entries, cd.e)
		}
		p.Classes = append(p.Classes, pc)
	}
	b, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// coveredByAll reports whether every baseline covers every node of the
// instance.
func coveredByAll(in *instance, workers int) bool {
	g := in.graph()
	for _, alg := range baselineAlgs {
		if _, err := planner(alg, in.randSeed, workers, nil).Schedule(g, tmedb.NodeID(in.src), t0, in.deadline()); err != nil {
			return false
		}
	}
	return true
}
