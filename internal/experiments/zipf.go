package experiments

import (
	"fmt"

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
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	const numItems = 54
	const totalRate = 10000.0
	samples := mcSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, alpha := range []float64{0.4, 0.8, 1.2} {
			net := topo.Abovenet(cfg.Seed)
			rng := rng.Derive(cfg.Seed, 500+int64(s.MC))
			net.AssignCosts(rng, 100, 200, 1, 20)

			pop := demand.Zipf(numItems, alpha)
			itemRates := make([]float64, numItems)
			for i := range itemRates {
				itemRates[i] = pop[i] * totalRate
			}
			perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), rng)
			rates := make([][]float64, numItems)
			edgeTotals := make([]float64, len(net.Edges))
			for i := range rates {
				rates[i] = make([]float64, net.G.NumNodes())
				for e, v := range net.Edges {
					rates[i][v] = perEdge[i][e]
					edgeTotals[e] += perEdge[i][e]
				}
			}
			net.SetUniformCapacity(cfg.CapacityFrac * totalRate)
			if err := net.AugmentFeasibility(edgeTotals); err != nil {
				return err
			}
			cacheCap := make([]float64, net.G.NumNodes())
			for _, v := range net.Edges {
				cacheCap[v] = cfg.ChunkSlots
			}
			spec := &placement.Spec{
				G:        net.G,
				NumItems: numItems,
				CacheCap: cacheCap,
				Pinned:   []graph.NodeID{net.Origin},
				Rates:    rates,
			}
			run := &Run{
				Scenario: &Scenario{Cfg: cfg, Net: net},
				Decision: spec,
				Truth:    spec,
				Dist:     graph.AllPairs(net.G),
			}
			results, err := scoreRoster(generalRoster(cfg), run)
			if err != nil {
				return fmt.Errorf("zipf alpha=%v: %w", alpha, err)
			}
			for _, r := range results {
				s.add(cCost, r.label, alpha, r.cost)
				s.add(cCong, r.label, alpha, r.congestion)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("synthetic Zipf demand, %d items, total rate %.0f, averaged over %d runs", numItems, totalRate, len(samples))
	cCost.finish(len(samples), note)
	cCong.finish(len(samples), note)
	return figs, nil
}
