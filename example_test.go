package jcr_test

import (
	"context"
	"fmt"

	"jcr"
)

// Example builds a four-node cache network and runs Algorithm 1 under
// unlimited link capacities.
func Example() {
	g := jcr.NewGraph(4)
	g.AddEdge(0, 1, 50, jcr.Unlimited) // origin uplink
	g.AddEdge(1, 2, 2, jcr.Unlimited)
	g.AddEdge(1, 3, 3, jcr.Unlimited)

	spec := &jcr.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1, 1},
		Pinned:   []int{0},
		Rates: [][]float64{
			{0, 0, 8, 1},
			{0, 0, 1, 6},
		},
	}
	res, err := jcr.Alg1(spec, jcr.AllPairs(g))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("node 2 caches item 0: %v\n", res.Placement.Has(2, 0))
	fmt.Printf("node 3 caches item 1: %v\n", res.Placement.Has(3, 1))
	fmt.Printf("routing cost: %.0f\n", res.Cost)
	// Output:
	// node 2 caches item 0: true
	// node 3 caches item 1: true
	// routing cost: 10
}

// ExampleNewStrategy solves the general capacitated case with the
// Section 4.3.3 alternating optimizer and validates the plan.
func ExampleNewStrategy() {
	g := jcr.NewGraph(3)
	g.AddEdge(0, 1, 10, 100)
	g.AddEdge(1, 2, 1, 100)
	spec := &jcr.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1},
		Pinned:   []int{0},
		Rates:    [][]float64{{0, 0, 5}, {0, 0, 2}},
	}
	alt, err := jcr.NewStrategy("alternating", jcr.StrategyOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	inst := jcr.Instance{Spec: spec}
	plan, _, err := alt.Decide(context.Background(), inst)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := jcr.ValidatePlan(inst, plan); err != nil {
		fmt.Println("invalid:", err)
		return
	}
	// The hot item is cached at the requester; the cold one ships from
	// the origin at cost 2 * 11.
	fmt.Printf("cost: %.0f, congestion: %.2f\n", plan.Cost, plan.MaxUtilization)
	// Output:
	// cost: 22, congestion: 0.02
}

// ExampleSolveMSUFP routes unsplittable demands from a replica server
// within link capacities (Algorithm 2).
func ExampleSolveMSUFP() {
	g := jcr.NewGraph(3)
	g.AddArc(0, 1, 1, 4) // cheap, narrow
	g.AddArc(0, 2, 3, 10)
	g.AddArc(2, 1, 1, 10) // detour
	inst := &jcr.MSUFPInstance{
		G:      g,
		Source: 0,
		Commodities: []jcr.MSUFPCommodity{
			{Dest: 1, Demand: 3},
			{Dest: 1, Demand: 3},
		},
	}
	asgn, err := jcr.SolveMSUFP(inst, 8)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	m := inst.Evaluate(asgn)
	// Theorem 4.7(i): the unsplittable cost never exceeds the splittable
	// optimum (which splits 4 units cheap + 2 via the detour: 4+8 = 12);
	// the small capacity overshoot stays within the 4.7(ii) bound.
	split, _ := inst.SplittableOptimum(nil)
	fmt.Printf("cost within splittable optimum: %v\n", m.Cost <= split.Cost)
	fmt.Printf("cost: %.0f\n", m.Cost)
	// Output:
	// cost within splittable optimum: true
	// cost: 6
}

// ExampleSolveFCFR computes the fully fractional lower bound.
func ExampleSolveFCFR() {
	g := jcr.NewGraph(2)
	g.AddEdge(0, 1, 10, 100)
	spec := &jcr.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1},
		Pinned:   []int{0},
		Rates:    [][]float64{{0, 1}, {0, 1}},
	}
	res, err := jcr.SolveFCFR(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("FC-FR optimum: %.0f\n", res.Cost)
	// Output:
	// FC-FR optimum: 10
}
