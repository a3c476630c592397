package main

import (
	"context"
	"math/rand"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/online"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// spGraph builds the shortest-path benchmark topology: a random connected
// edge-paired graph with small integer costs (equal-cost shortest paths
// everywhere, the tie-heavy regime the canonical kernels pay for).
func spGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(97))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
	}
	for e := 0; e < 3*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
		}
	}
	return g
}

// rerouteHorizon is the fault-scenario online reroute workload, built
// once: a 24-hour horizon on a 400-node graph where links fail and
// recover on MTBF/MTTR chains, with replicas pinned across the network
// and a decision that never pre-plans — so every hour re-routes all true
// demand through the nearest-replica trees (the path the engine caches).
var rerouteHorizon []online.HourInput

func rerouteHours() []online.HourInput {
	if rerouteHorizon != nil {
		return rerouteHorizon
	}
	const n, hours, items = 400, 24, 2
	g := spGraph(n)
	rng := rand.New(rand.NewSource(31))
	var pinned []graph.NodeID
	for v := 3; v < n; v += n / 16 {
		pinned = append(pinned, v)
	}
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, n)
		for r := 0; r < 20; r++ {
			rates[i][rng.Intn(n)] = 1 + rng.Float64()
		}
	}
	mk := func() *placement.Spec {
		return &placement.Spec{
			G: g, NumItems: items,
			CacheCap: make([]float64, n),
			Pinned:   pinned,
			Rates:    rates,
		}
	}
	sc, err := faults.RandomLinkFaults(g, hours, 300, 4, 7)
	if err != nil {
		fatal(err)
	}
	for h := 0; h < hours; h++ {
		dec, truth, _, err := sc.Apply(h, mk(), mk())
		if err != nil {
			fatal(err)
		}
		rerouteHorizon = append(rerouteHorizon, online.HourInput{
			Hour: h, Decision: dec, Truth: truth, Dist: graph.AllPairs(dec.G),
		})
	}
	return rerouteHorizon
}

// rnrOnly is a strategy that never plans serving paths, forcing every
// request of every hour through the online fallback reroute.
type rnrOnly struct{}

func (rnrOnly) Name() string { return "rnr-only" }

func (rnrOnly) Decide(_ context.Context, inst strategy.Instance) (*strategy.Plan, strategy.Stats, error) {
	return &strategy.Plan{Placement: inst.Spec.NewPlacement()}, strategy.Stats{Iterations: 1}, nil
}

// faultReroute runs the online controller over the fault horizon, with the
// cross-hour tree engine (the after side) or with every tree cold (the
// before side, Options.NoTreeReuse).
func faultReroute(noTreeReuse bool) error {
	_, err := online.Run(context.Background(), rnrOnly{}, rerouteHours(),
		online.Options{Resilient: true, NoTreeReuse: noTreeReuse})
	return err
}

// Benchmark fixtures for the kernel pairs, built once at init: a 400-node
// tie-heavy graph for the single-tree pair and a 150-node one for Yen
// (k=25 runs hundreds of spur searches per call).
var (
	spTreeGraph = spGraph(400)
	spYenGraph  = spGraph(600)
	dijkstraSrc = graph.NodeID(0)
)
