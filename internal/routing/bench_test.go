package routing

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"

	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/topo"
)

// abovenetRouting is the paper scenario's routing instance: Abovenet (23
// nodes), 54 items with Zipf-like rates at every edge node, and 9 edge
// caches of 12 slots filled by the greedy placement, so the auxiliary graph
// carries 54 virtual sources. linkCap, when positive, replaces every link
// capacity.
func abovenetRouting(b *testing.B, linkCap float64) (*placement.Spec, *placement.Placement) {
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
	if linkCap > 0 {
		for id := 0; id < s.G.NumArcs(); id++ {
			s.G.SetArcCap(id, linkCap)
		}
	}
	gr, err := placement.Greedy(s, graph.AllPairs(s.G))
	if err != nil {
		b.Fatal(err)
	}
	return s, gr.Placement
}

// BenchmarkItemMinCostFlow measures one item's min-cost flow, the inner
// step of the independent routing rung, on abovenetRouting's auxiliary
// graph. Each op routes the next item in turn, so ns/op is the mean over
// the catalog.
func BenchmarkItemMinCostFlow(b *testing.B) {
	s, pl := abovenetRouting(b, 0)
	active := demandSets(s)
	groups := make([][]graph.NodeID, len(active))
	for k, ad := range active {
		groups[k] = pl.Replicas(ad.item)
	}
	aux := graph.NewAuxiliary(s.G, groups)
	net := flow.NewOverlay(aux)
	defer net.Release()
	out := make([]float64, aux.G.NumArcs())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(active)
		if err := itemMinCostFlow(nil, net, aux, k, active[k], nil, false, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteSequential measures a whole Route on abovenetRouting with
// every link capacity at 4, tight enough that the independent flows
// overflow and, with 54 items too many for the multicommodity LP, the
// sequential rung routes them. ships/op counts the min-cost flows a Route
// solves; refRoute, the ladder that finished the independent rung, solves
// 108.
func BenchmarkRouteSequential(b *testing.B) {
	s, pl := abovenetRouting(b, 4)
	var ships atomic.Int64
	ctx := countShips(context.Background(), &ships)
	opts := Options{Workers: 1}
	res, err := Route(ctx, s, pl, opts)
	if err != nil {
		b.Fatal(err)
	}
	if res.Method != MethodSequential {
		b.Fatalf("method %q, want %q", res.Method, MethodSequential)
	}
	ships.Store(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(ctx, s, pl, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ships.Load())/float64(b.N), "ships/op")
}
