package strategy

import (
	"context"
	"math/rand"
	"testing"

	"jcr/internal/demand"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/topo"
)

// benchSequence is the hourly demand drift driven by alternatingSequence,
// built once: an Abovenet instance whose request magnitudes scale hour to
// hour while the network and the requesting pairs stay fixed — exactly the
// regime the incremental solve lifecycle targets.
var benchSequence []*placement.Spec

func benchSequenceSpecs() []*placement.Spec {
	if benchSequence != nil {
		return benchSequence
	}
	net := topo.Abovenet(1)
	rng := rand.New(rand.NewSource(5))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUnlimitedCapacity()
	const items, hours = 24, 8
	base := make([][]float64, items)
	for i := range base {
		base[i] = make([]float64, net.G.NumNodes())
		for _, e := range net.Edges {
			// Zipf-flavored popularity over a fixed requester set.
			base[i][e] = 10 * rng.Float64() / float64(i+1)
		}
	}
	caps := make([]float64, net.G.NumNodes())
	for v := range caps {
		if v != int(net.Origin) {
			caps[v] = 3
		}
	}
	for h := 0; h < hours; h++ {
		scale := 1 + 0.1*float64(h)
		rates := make([][]float64, items)
		for i := range rates {
			rates[i] = make([]float64, len(base[i]))
			for v := range rates[i] {
				rates[i][v] = base[i][v] * scale
			}
		}
		// A fresh Spec per hour sharing one graph: mutated demand needs a
		// new Spec identity for the routing demand cache's pointer contract.
		benchSequence = append(benchSequence, &placement.Spec{
			G:        net.G,
			NumItems: items,
			CacheCap: append([]float64(nil), caps...),
			Pinned:   []graph.NodeID{net.Origin},
			Rates:    rates,
		})
	}
	return benchSequence
}

// alternatingSequence runs the alternating optimizer over the hourly drift,
// seeding each hour with the previous placement — with carried solver state
// (warm) or from scratch every hour (cold).
func alternatingSequence(warm bool) error {
	alt := &Alternating{Options: Options{Fractional: true, WarmStart: true, NoSolverReuse: !warm}}
	for _, spec := range benchSequenceSpecs() {
		if _, _, err := alt.Decide(context.Background(), Instance{Spec: spec}); err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkAlternatingSequenceWarm times the alternating optimizer over the
// eight-hour drift with carried solver state (warm-started per-path LPs,
// routing caches); BenchmarkAlternatingSequenceCold starts every hour from
// scratch.
func BenchmarkAlternatingSequenceWarm(b *testing.B) { benchmarkAlternatingSequence(b, true) }

func BenchmarkAlternatingSequenceCold(b *testing.B) { benchmarkAlternatingSequence(b, false) }

func benchmarkAlternatingSequence(b *testing.B, warm bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := alternatingSequence(warm); err != nil {
			b.Fatal(err)
		}
	}
}

// arenaDecideSpec builds the per-strategy Decide benchmark's instance:
// the arena quick grid's clean cell (Abovenet, 24-item catalog, Zipf 0.8
// demand spread over the edge nodes, uniform capacities augmented to
// feasibility, chunk-slot edge caches).
func arenaDecideSpec(tb testing.TB) *placement.Spec {
	const items = 24
	const totalRate = 10000.0
	net := topo.Abovenet(1)
	r := rand.New(rand.NewSource(3))
	net.AssignCosts(r, 100, 200, 1, 20)
	pop := demand.Zipf(items, 0.8)
	itemRates := make([]float64, items)
	for i := range itemRates {
		itemRates[i] = pop[i] * totalRate
	}
	perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), r)
	rates := make([][]float64, items)
	edgeTotals := make([]float64, len(net.Edges))
	for i := range rates {
		rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			rates[i][v] = perEdge[i][e]
			edgeTotals[e] += perEdge[i][e]
		}
	}
	net.SetUniformCapacity(0.02 * totalRate)
	if err := net.AugmentFeasibility(edgeTotals); err != nil {
		tb.Fatal(err)
	}
	cacheCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = 12
	}
	return &placement.Spec{
		G:        net.G,
		NumItems: items,
		CacheCap: cacheCap,
		Pinned:   []graph.NodeID{net.Origin},
		Rates:    rates,
	}
}

// BenchmarkDecide times one fresh Decide per op of every registered
// strategy on the arena cell, the per-plan latency the scorecard's wall-ms
// column tracks. A fresh strategy per op means no warm-start carry-over.
// Strategies whose size gate rejects the cell (the brute-force exact
// solver) skip, mirroring the arena.
func BenchmarkDecide(b *testing.B) {
	spec := arenaDecideSpec(b)
	inst := Instance{Spec: spec, Dist: graph.AllPairs(spec.G)}
	opts := Options{Seed: 1, BestEffort: true, NoSolverReuse: true}
	for _, name := range Names() {
		b.Run(name, func(b *testing.B) {
			if sized, ok := MustNew(name, opts).(Sized); ok && !sized.Fits(inst) {
				b.Skip("size gate rejects the arena cell")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := MustNew(name, opts).Decide(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
