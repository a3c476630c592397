package flow

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"jcr/internal/graph"
)

// TestPooledNetworksConcurrent runs flows of different sizes from several
// goroutines at once, so pooled residual networks are reused across sizes
// and callers, and checks every result bit for bit against a sequential
// run. Run it with -race.
func TestPooledNetworksConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type job struct {
		g     *graph.Graph
		sinks []Demand
	}
	var jobs []job
	for k := 0; k < 24; k++ {
		n := 3 + rng.Intn(12)
		g := randomFlowGraph(rng, n)
		var sinks []Demand
		for j := 0; j < 1+rng.Intn(3); j++ {
			sinks = append(sinks, Demand{Node: 1 + rng.Intn(n-1), Amount: 0.5 + rng.Float64()})
		}
		jobs = append(jobs, job{g, sinks})
	}
	run := func(j job) ([]float64, float64, bool) {
		f, err := MinCostFlowToSinks(nil, j.g, nil, 0, j.sinks)
		mf := maxFlow(j.g, 0, j.g.NumNodes()-1)
		return f, mf.Value, err == nil
	}
	type outcome struct {
		arc []float64
		max float64
		ok  bool
	}
	want := make([]outcome, len(jobs))
	for k, j := range jobs {
		want[k].arc, want[k].max, want[k].ok = run(j)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		order := rng.Perm(len(jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for _, k := range order {
					arc, maxv, ok := run(jobs[k])
					if ok != want[k].ok || math.Float64bits(maxv) != math.Float64bits(want[k].max) || !bitsEqual(arc, want[k].arc) {
						t.Errorf("job %d: concurrent result differs from the sequential one", k)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}
