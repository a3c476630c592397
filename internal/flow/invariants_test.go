// External test package: internal/check imports flow, so these
// check-based assertions live outside the flow package to avoid an import
// cycle.
package flow_test

import (
	"testing"

	"jcr/internal/check"
	"jcr/internal/flow"
	"jcr/internal/graph"
)

func TestMinCostFlowSatisfiesInvariants(t *testing.T) {
	// 0->1->3 cost 2, 0->2->3 cost 10; both cap 4; demand 6.
	g := graph.New(4)
	g.AddArc(0, 1, 1, 4)
	g.AddArc(1, 3, 1, 4)
	g.AddArc(0, 2, 5, 4)
	g.AddArc(2, 3, 5, 4)
	r, err := flow.MinCostFlow(nil, g, 0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.ArcFlow(g, r.Arc, 0, map[graph.NodeID]float64{3: 6}, false); err != nil {
		t.Errorf("min-cost flow violates Eq. 1b-1d: %v", err)
	}
}

func TestDecomposeSatisfiesInvariants(t *testing.T) {
	// Decomposed path flows must re-aggregate to a conserved arc flow.
	g := graph.New(4)
	a := []graph.ArcID{
		g.AddArc(0, 1, 1, 4),
		g.AddArc(1, 3, 1, 4),
		g.AddArc(0, 2, 5, 4),
		g.AddArc(2, 3, 5, 4),
	}
	r, err := flow.MinCostFlow(nil, g, 0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	pfs, err := flow.Decompose(g, r.Arc, 0, []flow.Demand{{Node: 3, Amount: 6}})
	if err != nil {
		t.Fatal(err)
	}
	agg := make([]float64, g.NumArcs())
	for _, pf := range pfs {
		for _, id := range pf.Path.Arcs {
			agg[id] += pf.Amount
		}
	}
	_ = a
	if err := check.ArcFlow(g, agg, 0, map[graph.NodeID]float64{3: 6}, false); err != nil {
		t.Errorf("decomposed flow violates Eq. 1b-1d: %v", err)
	}
}
