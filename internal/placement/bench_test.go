package placement

import (
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/topo"
)

// BenchmarkPolishPlacement times Alg. 1's local-search polish by itself, on
// the Abovenet topology (23 nodes, 9 edge caches of 12 items each) with a
// 54-item catalog under Zipf-like demand at the edge nodes. Every iteration
// polishes a copy of the same pipage-rounded placement, computed once
// before the timer starts.
func BenchmarkPolishPlacement(b *testing.B) {
	const items, slots = 54, 12
	rng := rand.New(rand.NewSource(1))
	net := topo.Abovenet(1)
	net.AssignCosts(rng, 100, 200, 1, 20)
	n := net.G.NumNodes()
	s := &Spec{
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
	dist := graph.AllPairs(s.G)
	wmax := graph.MaxFinite(dist)
	rounded, err := Alg1(nil, s, dist, Alg1Options{DisablePolish: true})
	if err != nil {
		b.Fatal(err)
	}
	nodes := cacheableNodes(s)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		polishPlacement(s, dist, wmax, rounded.Placement.Clone(), nodes)
	}
}
