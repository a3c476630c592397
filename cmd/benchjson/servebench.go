package main

import (
	"context"
	"math/rand"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/serve"
	"jcr/internal/strategy"
)

// serveBenchState is the serving-layer benchmark fixture: a data plane
// loaded with a compiled plan on a 24-node mesh, plus a pre-sampled
// request stream so the measured loop touches only the lookup path.
type serveBenchState struct {
	dp     *serve.DataPlane
	plan   *serve.CompiledPlan
	sample []placement.Request
	picks  []uint64
}

// serveBench builds the fixture once (mirrors the internal/serve bench
// setup: random mesh, greedy placement, nearest-replica serving paths).
var serveBenchCached *serveBenchState

func serveBench() *serveBenchState {
	if serveBenchCached != nil {
		return serveBenchCached
	}
	const n, items = 24, 16
	g := graph.New(n)
	rng := rand.New(rand.NewSource(5))
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 1+9*rng.Float64(), 1000)
	}
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+9*rng.Float64(), 1000)
		}
	}
	caps := make([]float64, n)
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	for v := 1; v < n; v++ {
		caps[v] = float64(1 + rng.Intn(3))
		for i := 0; i < items; i++ {
			if rng.Float64() < 0.5 {
				rates[i][v] = rng.Float64() * 10
			}
		}
	}
	s := &placement.Spec{G: g, NumItems: items, CacheCap: caps, Pinned: []graph.NodeID{0}, Rates: rates}
	dp, err := serve.NewDataPlane(g, s.Pinned)
	if err != nil {
		fatal(err)
	}
	dec, _, err := strategy.MustNew("rnr", strategy.Options{}).Decide(context.Background(), strategy.Instance{Spec: s, Dist: graph.AllPairs(g)})
	if err != nil {
		fatal(err)
	}
	plan, err := serve.Compile(s, dec.Placement, dec.Paths, 1, 0)
	if err != nil {
		fatal(err)
	}
	if err := dp.Install(plan); err != nil {
		fatal(err)
	}
	reqs := s.Requests()
	const stream = 4096
	st := &serveBenchState{dp: dp, plan: plan}
	st.sample = make([]placement.Request, stream)
	st.picks = make([]uint64, stream)
	for k := range st.sample {
		st.sample[k] = reqs[rng.Intn(len(reqs))]
		st.picks[k] = rng.Uint64()
	}
	serveBenchCached = st
	return st
}
