package channel

import (
	"sync"
	"testing"
)

func TestMemoStatsHitMiss(t *testing.T) {
	var m Memo
	ed := Rician{K: 5, Beta: 1e-15}
	want := ed.MinCost(0.01)
	if got := m.MinCost(ed, 0.01); got != want {
		t.Fatalf("first MinCost = %g, want %g", got, want)
	}
	if got := m.MinCost(ed, 0.01); got != want {
		t.Fatalf("memoized MinCost = %g, want %g", got, want)
	}
	m.MinCost(ed, 0.02) // different eps: its own entry
	st := m.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want hits=1 misses=2 size=2", st)
	}
}

func TestMemoBypassesClosedFormModels(t *testing.T) {
	var m Memo
	// Step and Rayleigh invert in closed form, and an arbitrary
	// implementation (here a non-comparable func type) has no typed key:
	// all three are computed directly and leave the statistics alone.
	direct := []EDFunction{
		Step{Threshold: 3},
		Rayleigh{Beta: 1e-15},
		funcED(func(eps float64) float64 { return eps * 2 }),
	}
	for _, ed := range direct {
		if got, want := m.MinCost(ed, 0.5), ed.MinCost(0.5); got != want {
			t.Fatalf("%T MinCost = %g, want %g", ed, got, want)
		}
	}
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("closed-form calls stats = %+v, want zero", st)
	}
	// Rician and Nakagami share the table but never each other's keys.
	m.MinCost(Rician{K: 2, Beta: 1e-15}, 0.01)
	m.MinCost(Nakagami{M: 2, Beta: 1e-15}, 0.01)
	if st := m.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 2 {
		t.Fatalf("stats = %+v, want two distinct misses", st)
	}
}

// funcED adapts a func to EDFunction.
type funcED func(eps float64) float64

func (f funcED) FailureProb(w float64) float64 { return 1 }
func (f funcED) MinCost(eps float64) float64   { return f(eps) }

func TestMemoResetClearsEntriesAndStats(t *testing.T) {
	var m Memo
	ed := Nakagami{M: 2, Beta: 2e-15}
	m.MinCost(ed, 0.01)
	m.MinCost(ed, 0.01)
	m.Reset()
	if st := m.Stats(); st != (MemoStats{}) {
		t.Fatalf("stats after Reset = %+v, want zero", st)
	}
	if m.Len() != 0 {
		t.Fatalf("entries after Reset = %d", m.Len())
	}
	// A fresh miss after Reset recomputes and counts from zero.
	m.MinCost(ed, 0.01)
	if st := m.Stats(); st.Hits != 0 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats after Reset+miss = %+v", st)
	}
}

func TestMemoStatsConcurrent(t *testing.T) {
	var m Memo
	eds := []EDFunction{
		Rician{K: 5, Beta: 1e-15},
		Rician{K: 5, Beta: 2e-15},
		Nakagami{M: 2, Beta: 1e-15},
		Nakagami{M: 2, Beta: 2e-15},
	}
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ed := eds[(w+i)%len(eds)]
				got := m.MinCost(ed, 0.01)
				if want := ed.MinCost(0.01); got != want {
					t.Errorf("concurrent MinCost = %g, want %g", got, want)
					return
				}
				if i%100 == 99 {
					m.Stats() // reads race-free against writes
				}
			}
		}(w)
	}
	wg.Wait()
	st := m.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits+misses = %d, want %d", st.Hits+st.Misses, workers*iters)
	}
	// Racing first computations may store the same key more than once,
	// but the table can never exceed the distinct-key count, and after
	// this many iterations every key must be present.
	if st.Size != int64(len(eds)) {
		t.Fatalf("size = %d, want %d", st.Size, len(eds))
	}
	if st.Misses < int64(len(eds)) || st.Misses >= workers*iters {
		t.Fatalf("misses = %d outside (%d, %d)", st.Misses, len(eds), workers*iters)
	}
}
