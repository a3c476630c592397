package online

import (
	"context"
	"math/rand"
	"testing"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// spGraph builds the reroute benchmark's topology: a random connected
// edge-paired graph with small integer costs (equal-cost shortest paths
// everywhere, the tie-heavy regime the canonical kernels pay for). It is
// the same construction as the shortest-path benchmarks in internal/graph.
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
var rerouteHorizon []HourInput

func rerouteHours(tb testing.TB) []HourInput {
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
		tb.Fatal(err)
	}
	for h := 0; h < hours; h++ {
		dec, truth, _, err := sc.Apply(h, mk(), mk())
		if err != nil {
			tb.Fatal(err)
		}
		rerouteHorizon = append(rerouteHorizon, HourInput{
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

// BenchmarkFaultReroute runs the online controller over the fault horizon
// with the cross-hour tree engine; BenchmarkFaultRerouteCold recomputes
// every tree (Options.NoTreeReuse). The series are identical either way
// (test-pinned), so the pair prices tree reuse alone.
func BenchmarkFaultReroute(b *testing.B) { benchmarkFaultReroute(b, false) }

func BenchmarkFaultRerouteCold(b *testing.B) { benchmarkFaultReroute(b, true) }

func benchmarkFaultReroute(b *testing.B, noTreeReuse bool) {
	hours := rerouteHours(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), rnrOnly{}, hours, Options{Resilient: true, NoTreeReuse: noTreeReuse}); err != nil {
			b.Fatal(err)
		}
	}
}
