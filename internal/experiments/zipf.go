package experiments

import (
	"fmt"
	"math/rand"

	"jcr/internal/demand"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/topo"
)

// ZipfSweep reproduces the conference version's synthetic evaluation:
// requests drawn from a Zipf popularity law (as in [3]) instead of the
// trace, sweeping the skew alpha. Flat popularity (small alpha) leaves
// little for caching; strong skew (large alpha) lets small caches absorb
// most of the demand, so every method's cost falls with alpha while the
// capacity-oblivious baselines keep their congestion.
func ZipfSweep(cfg *Config) ([]Figure, error) {
	figs := []Figure{
		{ID: "ZipfA", Title: "Zipf demand: routing cost vs skew", XLabel: "alpha", YLabel: "routing cost"},
		{ID: "ZipfB", Title: "Zipf demand: congestion vs skew", XLabel: "alpha", YLabel: "max load/capacity"},
	}
	const numItems = 54
	const totalRate = 10000.0
	alphas := []float64{0.4, 0.8, 1.2}
	sw := sweep{
		samples: mcSamples(cfg),
		modes:   []PredictionMode{TrueDemand},
		xs:      alphas,
		run: func(p RunParams, i int) (*Run, error) {
			net := topo.Abovenet(cfg.Seed)
			r := rng.Derive(cfg.Seed, 500+p.MCSeed)
			net.AssignCosts(r, 100, 200, 1, 20)
			spec, edgeTotals := zipfSpec(net, numItems, alphas[i], totalRate, cfg.ChunkSlots, r)
			spec.Pinned = []graph.NodeID{net.Origin}
			net.SetUniformCapacity(cfg.CapacityFrac * totalRate)
			if err := net.AugmentFeasibility(edgeTotals); err != nil {
				return nil, err
			}
			return &Run{
				Scenario: &Scenario{Cfg: cfg, Net: net},
				Decision: spec,
				Truth:    spec,
				Dist:     graph.AllPairs(net.G),
			}, nil
		},
		note: fmt.Sprintf("synthetic Zipf demand, %d items, total rate %.0f, averaged over %%d runs", numItems, totalRate),
	}
	if err := generalSweep(cfg, sw, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
	return figs, nil
}

// zipfSpec builds the demand side of a synthetic Zipf cell on net (the
// Zipf sweep, the arena and the scaling sweep): Zipf(alpha) popularity over
// the catalog scaled to totalRate, spread across the edge nodes with r,
// and caches of the given slots at every edge node. It returns the spec,
// with no pinned origins yet, and each edge node's total demand for the
// caller's capacity augmentation; topology, link capacities and origins
// are the caller's.
func zipfSpec(net *topo.Network, catalog int, alpha, totalRate, slots float64, r *rand.Rand) (*placement.Spec, []float64) {
	pop := demand.Zipf(catalog, alpha)
	itemRates := make([]float64, catalog)
	for i := range itemRates {
		itemRates[i] = pop[i] * totalRate
	}
	perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), r)
	rates := make([][]float64, catalog)
	edgeTotals := make([]float64, len(net.Edges))
	for i := range rates {
		rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			rates[i][v] = perEdge[i][e]
			edgeTotals[e] += perEdge[i][e]
		}
	}
	cacheCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = slots
	}
	return &placement.Spec{G: net.G, NumItems: catalog, CacheCap: cacheCap, Rates: rates}, edgeTotals
}
