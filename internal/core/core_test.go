package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/lp"

	"jcr/internal/check"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/routing"
)

// edgeCacheSpec builds a small edge-caching instance: origin 0, internal
// node 1, edge caches 2 and 3 serving requests.
func edgeCacheSpec() *placement.Spec {
	g := graph.New(4)
	g.AddEdge(0, 1, 50, 10)
	g.AddEdge(1, 2, 2, 10)
	g.AddEdge(1, 3, 3, 10)
	g.AddEdge(2, 3, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 0, 1, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, 3),
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, 4)
	}
	s.Rates[0][2] = 4
	s.Rates[0][3] = 3
	s.Rates[1][3] = 2
	s.Rates[2][2] = 1
	return s
}

func TestAlternatingImprovesOverOriginOnly(t *testing.T) {
	s := edgeCacheSpec()
	sol, err := Alternating(nil, s, AlternatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(s, sol); err != nil {
		t.Fatal(err)
	}
	if err := check.Solution(s, sol.Placement, sol.Routing.Paths, sol.Cost); err != nil {
		t.Fatal(err)
	}
	// Origin-only serving cost: every request traverses the expensive
	// origin link.
	pinnedOnly := s.NewPlacement()
	base, err := routing.Route(nil, s, pinnedOnly, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost >= base.Cost {
		t.Errorf("alternating cost %v did not improve on origin-only %v", sol.Cost, base.Cost)
	}
	if sol.Iterations < 1 {
		t.Error("no iterations recorded")
	}
}

func TestAlternatingCostNeverWorseThanInitial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 15; trial++ {
		s := randomCoreSpec(rng)
		init := s.NewPlacement()
		initRoute, err := routing.Route(nil, s, init, routing.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, frac := range []bool{false, true} {
			sol, err := Alternating(nil, s, AlternatingOptions{Fractional: frac, Rng: rng})
			if err != nil {
				t.Fatalf("trial %d frac=%v: %v", trial, frac, err)
			}
			if err := Validate(s, sol); err != nil {
				t.Fatalf("trial %d frac=%v: %v", trial, frac, err)
			}
			if err := check.Solution(s, sol.Placement, sol.Routing.Paths, sol.Cost); err != nil {
				t.Fatalf("trial %d frac=%v: %v", trial, frac, err)
			}
			if sol.Cost > initRoute.Cost*(1+1e-9) {
				t.Fatalf("trial %d frac=%v: final cost %v worse than initial %v", trial, frac, sol.Cost, initRoute.Cost)
			}
		}
	}
}

func randomCoreSpec(rng *rand.Rand) *placement.Spec {
	n := 5 + rng.Intn(4)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, float64(1+rng.Intn(20)), 5+20*rng.Float64())
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(20)), 5+20*rng.Float64())
		}
	}
	nItems := 2 + rng.Intn(3)
	s := &placement.Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, nItems),
	}
	for v := 1; v < n; v++ {
		s.CacheCap[v] = float64(rng.Intn(2))
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := 1; v < n; v++ {
			if rng.Float64() < 0.5 {
				s.Rates[i][v] = 0.5 + 3*rng.Float64()
			}
		}
	}
	return s
}

func TestProposition48Example(t *testing.T) {
	// Fig. 9: the alternating optimizer is stuck at a Nash equilibrium
	// with cost lambda*w + eps^2 while the optimum is eps*(lambda + w).
	lambda, eps, w := 10.0, 0.1, 5.0
	g := graph.New(4) // 0 = vs (server), 1 = v1, 2 = v2, 3 = s (client)
	g.AddEdge(0, 1, w, lambda)
	g.AddEdge(0, 2, w, lambda)
	g.AddEdge(1, 3, eps, lambda)
	g.AddEdge(2, 3, w, lambda)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{2, 1, 1, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, 2),
	}
	s.Rates[0] = []float64{0, 0, 0, lambda} // item 1 at rate lambda
	s.Rates[1] = []float64{0, 0, 0, eps}    // item 2 at rate eps
	// The bad initial placement: item 1 on v2, item 2 on v1.
	bad := s.NewPlacement()
	bad.Stores[2][0] = true
	bad.Stores[1][1] = true
	sol, err := Alternating(nil, s, AlternatingOptions{Initial: bad})
	if err != nil {
		t.Fatal(err)
	}
	neCost := lambda*w + eps*eps
	if math.Abs(sol.Cost-neCost) > 1e-6 {
		t.Errorf("alternating stuck-NE cost = %v, want %v", sol.Cost, neCost)
	}
	// The optimal placement escapes the NE.
	good := s.NewPlacement()
	good.Stores[1][0] = true
	good.Stores[2][1] = true
	opt, err := routing.Route(nil, s, good, routing.Options{})
	if err != nil {
		t.Fatal(err)
	}
	optCost := eps * (lambda + w)
	if math.Abs(opt.Cost-optCost) > 1e-6 {
		t.Errorf("optimal cost = %v, want %v", opt.Cost, optCost)
	}
	if sol.Cost <= opt.Cost {
		t.Errorf("example should show NE (%v) worse than OPT (%v)", sol.Cost, opt.Cost)
	}
}

func TestFCFRLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		s := randomCoreSpec(rng)
		fc, err := SolveFCFR(s)
		if errors.Is(err, lp.ErrInfeasible) {
			continue // overloaded instance: no fractional solution exists
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sol, err := Alternating(nil, s, AlternatingOptions{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// FC-FR is a relaxation of IC-IR: its optimum can be no more
		// expensive (when the IC-IR solution respects capacities).
		if sol.MaxUtilization <= 1+1e-9 && fc.Cost > sol.Cost*(1+1e-6)+1e-6 {
			t.Fatalf("trial %d: FC-FR cost %v exceeds feasible IC-IR cost %v", trial, fc.Cost, sol.Cost)
		}
		// Fractional caching respects capacity.
		for v := 0; v < s.G.NumNodes(); v++ {
			if s.IsPinned(v) {
				continue
			}
			var used float64
			for i := 0; i < s.NumItems; i++ {
				used += fc.X[v][i] * s.Size(i)
			}
			if used > s.CacheCap[v]+1e-6 {
				t.Fatalf("trial %d: node %d fractional cache use %v > %v", trial, v, used, s.CacheCap[v])
			}
		}
	}
}

func TestFCFRSimpleExact(t *testing.T) {
	// One item, one requester, cache right at the requester: FC-FR can
	// cache everything locally; cost 0.
	g := graph.New(2)
	g.AddEdge(0, 1, 7, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 3}},
	}
	fc, err := SolveFCFR(s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fc.Cost) > 1e-6 {
		t.Errorf("FC-FR cost = %v, want 0", fc.Cost)
	}
	if fc.X[1][0] < 1-1e-6 {
		t.Errorf("X[1][0] = %v, want 1", fc.X[1][0])
	}
}

func TestFCFRSplitsCache(t *testing.T) {
	// Two equally hot items, capacity for one: fractional caching splits
	// and the cost is half of serving both remotely.
	g := graph.New(2)
	g.AddEdge(0, 1, 10, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 1}, {0, 1}},
	}
	fc, err := SolveFCFR(s)
	if err != nil {
		t.Fatal(err)
	}
	// Remote cost for both = 20; caching one unit of content (split any
	// way) saves 10.
	if math.Abs(fc.Cost-10) > 1e-6 {
		t.Errorf("FC-FR cost = %v, want 10", fc.Cost)
	}
}

func TestRegimeString(t *testing.T) {
	if FCFR.String() != "FC-FR" || ICFR.String() != "IC-FR" || ICIR.String() != "IC-IR" {
		t.Error("regime names wrong")
	}
	if Regime(9).String() == "" {
		t.Error("unknown regime should still format")
	}
}

func TestValidateCatchesShortService(t *testing.T) {
	s := edgeCacheSpec()
	sol, err := Alternating(nil, s, AlternatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one serving path: Validate must notice.
	broken := *sol
	brokenRouting := *sol.Routing
	brokenRouting.Paths = brokenRouting.Paths[1:]
	broken.Routing = &brokenRouting
	if Validate(s, &broken) == nil {
		t.Error("Validate accepted a solution missing a serving path")
	}
}
