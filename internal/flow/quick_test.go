package flow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jcr/internal/graph"
)

// quickNet is a random connected capacitated network for testing/quick.
type quickNet struct {
	G     *graph.Graph
	Value float64
}

// Generate implements quick.Generator.
func (quickNet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 3 + rng.Intn(7)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1, float64(1+rng.Intn(15)), 1+9*rng.Float64())
	}
	extra := rng.Intn(2 * n)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, float64(1+rng.Intn(15)), 1+9*rng.Float64())
		}
	}
	return reflect.ValueOf(quickNet{G: g, Value: 0.5 + 3*rng.Float64()})
}

// Min-cost flow output conserves flow at interior nodes, respects
// capacities, ships the requested value, and its cost equals the arc-cost
// sum.
func TestQuickMinCostFlowInvariants(t *testing.T) {
	property := func(qn quickNet) bool {
		src, dst := 0, qn.G.NumNodes()-1
		mf := maxFlow(qn.G, src, dst)
		if mf.Value <= 0 {
			return true
		}
		value := math.Min(qn.Value, mf.Value)
		res, err := MinCostFlow(nil, qn.G, src, dst, value)
		if err != nil {
			return false
		}
		if math.Abs(res.Value-value) > 1e-6*(1+value) {
			return false
		}
		for v := 0; v < qn.G.NumNodes(); v++ {
			net := NetOutflow(qn.G, res.Arc, v)
			want := 0.0
			switch v {
			case src:
				want = value
			case dst:
				want = -value
			}
			if math.Abs(net-want) > 1e-6*(1+value) {
				return false
			}
		}
		var cost float64
		for id, f := range res.Arc {
			if f < -1e-9 || f > qn.G.Arc(id).Cap+1e-6 {
				return false
			}
			cost += f * qn.G.Arc(id).Cost
		}
		return math.Abs(cost-res.Cost) <= 1e-6*(1+cost)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Max-flow equals min-cut over a sample of cuts (weak duality check: the
// flow value never exceeds any cut capacity).
func TestQuickMaxFlowWeakDuality(t *testing.T) {
	property := func(qn quickNet, cutSeed int64) bool {
		src, dst := 0, qn.G.NumNodes()-1
		mf := maxFlow(qn.G, src, dst)
		if math.IsInf(mf.Value, 1) {
			return true
		}
		rng := rand.New(rand.NewSource(cutSeed))
		for trial := 0; trial < 10; trial++ {
			inS := make([]bool, qn.G.NumNodes())
			inS[src] = true
			for v := 1; v < qn.G.NumNodes()-1; v++ {
				inS[v] = rng.Intn(2) == 0
			}
			var cut float64
			for id := 0; id < qn.G.NumArcs(); id++ {
				a := qn.G.Arc(id)
				if inS[a.From] && !inS[a.To] {
					cut += a.Cap
				}
			}
			if mf.Value > cut+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Decomposition is lossless with respect to cost: the paths' cost plus the
// dropped cycles' (nonnegative) cost equals the flow cost, so the paths
// never cost more than the flow.
func TestQuickDecomposeCostNeverExceedsFlow(t *testing.T) {
	property := func(qn quickNet) bool {
		src := 0
		gg := qn.G.Clone()
		super := gg.AddNode()
		rng := rand.New(rand.NewSource(int64(qn.G.NumArcs())))
		sinks := map[graph.NodeID]float64{}
		for k := 0; k < 2; k++ {
			s := 1 + rng.Intn(qn.G.NumNodes()-1)
			if _, dup := sinks[s]; !dup {
				d := 0.3 + 2*rng.Float64()
				sinks[s] = d
				gg.AddArc(s, super, 0, d)
			}
		}
		var total float64
		for _, d := range sinks {
			total += d
		}
		res, err := MinCostFlow(nil, gg, src, super, total)
		if err != nil {
			return true // infeasible instance, nothing to check
		}
		arcFlow := res.Arc[:qn.G.NumArcs()]
		paths, err := Decompose(qn.G, arcFlow, src, sinks)
		if err != nil {
			return false
		}
		var pathCost float64
		for _, pf := range paths {
			pathCost += pf.Amount * pf.Path.Cost(qn.G)
		}
		return pathCost <= Cost(qn.G, arcFlow)+1e-6*(1+pathCost)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
