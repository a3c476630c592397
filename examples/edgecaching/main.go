// Edge caching: the paper's Section-6 scenario end to end. An ISP network
// serves hourly YouTube-like demand from edge caches; the alternating
// optimizer jointly chooses chunk placement and capacity-aware routes and
// is compared against shortest-path and route-to-nearest-replica
// baselines.
//
//	go run ./examples/edgecaching
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"jcr"
	"jcr/internal/demand"
)

func main() {
	// The Abovenet-like evaluation network: a degree-1 origin and nine
	// low-degree edge nodes hosting caches.
	net := jcr.Abovenet(1)
	rng := rand.New(rand.NewSource(7))
	net.AssignCosts(rng, 100, 200, 1, 20)

	// Catalog: the paper's top-10 videos in 100-MB chunks (|C| = 54).
	videos := demand.TopVideos(10)
	items := demand.ChunkCatalog(videos, demand.DefaultChunkMB)

	// One hour of demand from the synthetic trace, spread randomly over
	// the edge nodes.
	trace := demand.SynthesizeTrace(videos, 650, 99)
	views := trace.Views[600]
	itemRates := demand.ItemRates(items, views, false)
	perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), rng)

	rates := make([][]float64, len(items))
	var total float64
	edgeTotals := make([]float64, len(net.Edges))
	for i := range rates {
		rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			rates[i][v] = perEdge[i][e]
			edgeTotals[e] += perEdge[i][e]
			total += perEdge[i][e]
		}
	}

	// Link capacity: 0.7% of the total request rate (the paper's kappa),
	// plus the origin-reachability augmentation.
	net.SetUniformCapacity(0.007 * total)
	if err := net.AugmentFeasibility(edgeTotals); err != nil {
		log.Fatal(err)
	}

	cacheCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = 12 // zeta = 12 chunks per edge cache
	}
	spec := &jcr.Spec{
		G:        net.G,
		NumItems: len(items),
		CacheCap: cacheCap,
		Pinned:   []int{net.Origin},
		Rates:    rates,
	}

	fmt.Printf("edge caching on %s: |V|=%d, |C|=%d chunks, %d edge caches, total rate %.0f chunks/h\n",
		net.Name, net.G.NumNodes(), len(items), len(net.Edges), total)

	// Our solution: alternating caching/routing optimization (IC-IR).
	inst := jcr.Instance{Spec: spec}
	sol, iters := alternate(inst, false)
	fmt.Printf("alternating (ours):   cost %.3e  congestion %.2f  (%d iterations)\n",
		sol.Cost, sol.MaxUtilization, iters)

	// Baseline: serve everything from the origin.
	originOnly := spec.NewPlacement()
	base, err := jcr.Route(spec, originOnly, jcr.RoutingOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("origin only:          cost %.3e  congestion %.2f\n", base.Cost, base.MaxUtilization)

	// Reference: IC-FR (fractional routing) lower envelope of the same
	// alternating scheme.
	icfr, _ := alternate(inst, true)
	fmt.Printf("IC-FR reference:      cost %.3e  congestion %.2f\n", icfr.Cost, icfr.MaxUtilization)

	fmt.Printf("\nimprovement over origin-only: %.1f%% cost\n", 100*(1-sol.Cost/base.Cost))
}

// alternate runs the registered "alternating" strategy once on inst, under
// fractional (IC-FR) or integral (IC-IR) routing, validates its plan, and
// returns it with the number of alternating rounds run.
func alternate(inst jcr.Instance, fractional bool) (*jcr.Plan, int) {
	alt, err := jcr.NewStrategy("alternating", jcr.StrategyOptions{Fractional: fractional})
	if err != nil {
		log.Fatal(err)
	}
	plan, stats, err := alt.Decide(context.Background(), inst)
	if err != nil {
		log.Fatal(err)
	}
	if err := jcr.ValidatePlan(inst, plan); err != nil {
		log.Fatal(err)
	}
	return plan, stats.Iterations
}
