package routing

import (
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/topo"
)

// BenchmarkItemMinCostFlow measures one item's min-cost flow, the inner
// step of the independent routing rung, on the paper scenario's auxiliary
// graph: Abovenet (23 nodes), 54 items with Zipf-like rates at every edge
// node, and 9 edge caches of 12 slots filled by the greedy placement, so
// the graph carries 54 virtual sources. Each op routes the next item in
// turn, so ns/op is the mean over the catalog.
func BenchmarkItemMinCostFlow(b *testing.B) {
	const items, slots = 54, 12
	rng := rand.New(rand.NewSource(1))
	net := topo.Abovenet(1)
	net.AssignCosts(rng, 100, 200, 1, 20)
	n := net.G.NumNodes()
	s := &placement.Spec{
		G:        net.G,
		NumItems: items,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{net.Origin},
		Rates:    make([][]float64, items),
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for _, v := range net.Edges {
			s.Rates[i][v] = (0.5 + rng.Float64()) / math.Pow(float64(i+1), 0.8)
		}
	}
	for _, v := range net.Edges {
		s.CacheCap[v] = slots
	}
	gr, err := placement.Greedy(s, graph.AllPairs(s.G))
	if err != nil {
		b.Fatal(err)
	}
	active := (*Reuse)(nil).baseDemand(s)
	groups := make([][]graph.NodeID, len(active))
	for k, ad := range active {
		groups[k] = gr.Placement.Replicas(ad.item)
	}
	aux := graph.NewAuxiliary(s.G, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(active)
		if _, err := itemMinCostFlow(nil, aux, k, active[k], nil, false); err != nil {
			b.Fatal(err)
		}
	}
}
