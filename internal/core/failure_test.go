package core

// Failure-injection tests: degraded networks, pathological demand, and
// broken inputs must produce errors or graceful degradation, never panics
// or silent corruption.

import (
	"math"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/strategy"
)

func TestFailureUnreachableRequester(t *testing.T) {
	// Node 2 requests an item but has no incoming arcs at all.
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 10)
	g.AddArc(2, 1, 1, 10) // outgoing only
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 1}},
	}
	if _, _, err := alternate(s, strategy.Options{}, nil); err == nil {
		t.Error("unreachable requester should error, not serve silently")
	}
	if _, err := SolveFCFR(nil, s); err == nil {
		t.Error("FC-FR should report the unreachable requester")
	}
}

func TestFailureZeroCapacityEverywhere(t *testing.T) {
	// All links have zero capacity: fractional routing is infeasible,
	// but the solvers must still return (capacity-obliviously routed,
	// congestion reported as +Inf-ish large) rather than crash, matching
	// the evaluation's handling of overloaded benchmarks.
	g := graph.New(2)
	g.AddEdge(0, 1, 5, 0)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 2}},
	}
	res, err := routing.Route(nil, s, s.NewPlacement(), routing.Options{})
	if err != nil {
		t.Fatalf("zero-capacity routing should degrade, got error: %v", err)
	}
	if res.Cost != 10 {
		t.Errorf("cost = %v, want 10 (capacity-oblivious path)", res.Cost)
	}
	// Zero-capacity arcs are excluded from the utilization ratio (no
	// meaningful denominator), so congestion reads 0 here.
	if math.IsNaN(res.MaxUtilization) {
		t.Error("congestion must not be NaN")
	}
}

func TestFailureAllZeroDemand(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{make([]float64, 3), make([]float64, 3)},
	}
	sol, _, err := alternate(s, strategy.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 || sol.MaxUtilization != 0 {
		t.Errorf("zero demand should be free: cost %v, congestion %v", sol.Cost, sol.MaxUtilization)
	}
	fc, err := SolveFCFR(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if fc.Cost != 0 {
		t.Errorf("FC-FR zero-demand cost = %v", fc.Cost)
	}
}

func TestFailureNaNRateRejected(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, math.NaN()}},
	}
	if _, _, err := alternate(s, strategy.Options{}, nil); err == nil {
		t.Error("NaN rate accepted")
	}
	if _, err := routing.Route(nil, s, s.NewPlacement(), routing.Options{}); err == nil {
		t.Error("NaN rate accepted by Route")
	}
}

func TestFailureIsolatedCacheNode(t *testing.T) {
	// A cache exists on an isolated node: placement may use it, but
	// routing must still serve all requests from reachable replicas.
	g := graph.New(4)
	g.AddEdge(0, 1, 3, 100)
	// Node 2 requests, node 3 is an isolated cache.
	g.AddEdge(1, 2, 1, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0, 0, 5},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 4, 0}},
	}
	sol, _, err := alternate(s, strategy.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := validPlan(s, sol); err != nil {
		t.Fatal(err)
	}
	if want := 4 * 4.0; math.Abs(sol.Cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v (served from origin)", sol.Cost, want)
	}
}

func TestFailureSingleNodeNetwork(t *testing.T) {
	// Degenerate: the requester IS the origin.
	g := graph.New(1)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{3}},
	}
	sol, _, err := alternate(s, strategy.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != 0 {
		t.Errorf("self-served demand should be free, cost %v", sol.Cost)
	}
}

func TestFailureHugeRates(t *testing.T) {
	// 1e12-scale rates: relative tolerances must hold up.
	g := graph.New(3)
	g.AddEdge(0, 1, 7, 4e11)
	g.AddEdge(1, 2, 2, 4e11)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 3e11}, {0, 0, 2e11}},
	}
	sol, _, err := alternate(s, strategy.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := validPlan(s, sol); err != nil {
		t.Fatal(err)
	}
	// The hot item is cached at the requester; only the cold one moves.
	if want := 2e11 * 9; math.Abs(sol.Cost-want) > 1e-3*want {
		t.Errorf("cost = %v, want %v", sol.Cost, want)
	}
}
