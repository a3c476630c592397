package msufp

import (
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/topo"
)

// benchInstance builds the Fig. 6-scale benchmark instance: 486
// commodities on the Abovenet auxiliary graph.
func benchInstance(tb testing.TB) *Instance {
	net := topo.Abovenet(1)
	rng := rand.New(rand.NewSource(2))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(5000)
	perEdge := make([]float64, len(net.Edges))
	aux := graph.NewAuxiliary(net.G, [][]graph.NodeID{{net.Origin, net.Edges[0]}})
	inst := &Instance{G: aux.G, Source: aux.VirtualSource[0]}
	for i := 0; i < 486; i++ {
		e := rng.Intn(len(net.Edges))
		d := 20 * (1 + rng.ExpFloat64())
		inst.Commodities = append(inst.Commodities, Commodity{Dest: net.Edges[e], Demand: d})
		perEdge[e] += d
	}
	// Feasibility on the base graph happened before the clone, so raise
	// the cloned arcs directly (arc IDs coincide).
	if err := net.AugmentFeasibility(perEdge); err != nil {
		tb.Fatal(err)
	}
	for id := 0; id < net.G.NumArcs(); id++ {
		aux.G.SetArcCap(id, net.G.Arc(id).Cap)
	}
	return inst
}

// BenchmarkMSUFPAlg2 measures Algorithm 2 at K=1000 on the Fig. 6 instance
// scale (Table 3 "Alg. 2").
func BenchmarkMSUFPAlg2(b *testing.B) { benchmarkAlg2(b, 1000) }

// BenchmarkMSUFPSkutella measures the K=2 baseline [33] on the same
// instance.
func BenchmarkMSUFPSkutella(b *testing.B) { benchmarkAlg2(b, 2) }

func benchmarkAlg2(b *testing.B, k int) {
	inst := benchInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveAlg2(nil, inst, k); err != nil {
			b.Fatal(err)
		}
	}
}
