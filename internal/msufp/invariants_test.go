package msufp

import (
	"testing"

	"jcr/internal/check"
	"jcr/internal/graph"
)

func TestSplittableOptimumSatisfiesInvariants(t *testing.T) {
	inst := diamondInstance()
	res, err := inst.SplittableOptimum(nil)
	if err != nil {
		t.Fatal(err)
	}
	demand := map[graph.NodeID]float64{}
	for _, c := range inst.Commodities {
		demand[c.Dest] += c.Demand
	}
	if err := check.ArcFlow(inst.G, res.Arc, inst.Source, demand, false); err != nil {
		t.Errorf("splittable optimum violates Eq. 1b-1d: %v", err)
	}
}

func TestAlg2LoadsSatisfyInvariants(t *testing.T) {
	inst := diamondInstance()
	for _, k := range []int{1, 2} {
		a, err := SolveAlg2(nil, inst, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := inst.Validate(a); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		m := inst.Evaluate(a)
		demand := map[graph.NodeID]float64{}
		for _, c := range inst.Commodities {
			demand[c.Dest] += c.Demand
		}
		// Unsplittable routing may exceed capacities by a bounded amount
		// (Theorem 4.7), so congestion is permitted; conservation is not
		// negotiable.
		if err := check.ArcFlow(inst.G, m.Load, inst.Source, demand, true); err != nil {
			t.Errorf("K=%d: assignment loads violate Eq. 1b-1c: %v", k, err)
		}
	}
}
