package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/check"
	"jcr/internal/core"
	"jcr/internal/graph"
	"jcr/internal/placement"
)

// tinySpec generates a random small instance suitable for brute force.
func tinySpec(rng *rand.Rand) *placement.Spec {
	n := 4 + rng.Intn(2)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(10)), 4+8*rng.Float64())
	}
	for e := 0; e < 2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(10)), 4+8*rng.Float64())
		}
	}
	nItems := 2
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
			if rng.Float64() < 0.4 {
				s.Rates[i][v] = 0.3 + 1.5*rng.Float64()
			}
		}
	}
	return s
}

func TestExactHandMadeInstance(t *testing.T) {
	// Two nodes: origin 0 and requester 1 with a 1-slot cache; two items
	// with rates 3 (item 0) and 1 (item 1); link cost 10 each way.
	// Optimal IC-FR and IC-IR: cache item 0 locally, fetch item 1 from
	// the origin: cost 10.
	g := graph.New(2)
	g.AddEdge(0, 1, 10, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 3}, {0, 1}},
	}
	icfr, err := SolveICFR(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(icfr.Cost-10) > 1e-6 {
		t.Errorf("IC-FR optimum = %v, want 10", icfr.Cost)
	}
	if !icfr.Placement.Has(1, 0) {
		t.Error("optimal placement should cache the hot item locally")
	}
	if err := check.Placement(s, icfr.Placement); err != nil {
		t.Errorf("IC-FR placement violates Eq. 1f: %v", err)
	}
	icir, err := SolveICIR(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(icir.Cost-10) > 1e-6 {
		t.Errorf("IC-IR optimum = %v, want 10", icir.Cost)
	}
	if err := check.Placement(s, icir.Placement); err != nil {
		t.Errorf("IC-IR placement violates Eq. 1f: %v", err)
	}
}

func TestExactRegimeOrdering(t *testing.T) {
	// FC-FR <= IC-FR <= IC-IR on every feasible instance (relaxation
	// ordering of Section 2.4).
	rng := rand.New(rand.NewSource(19))
	checked := 0
	for trial := 0; trial < 25; trial++ {
		s := tinySpec(rng)
		icfr, err := SolveICFR(nil, s)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		icir, err := SolveICIR(nil, s)
		if errors.Is(err, ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fcfr, err := core.SolveFCFR(s)
		if err != nil {
			continue // FC-FR LP may be infeasible on overloaded draws
		}
		if fcfr.Cost > icfr.Cost*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: FC-FR %v > IC-FR %v", trial, fcfr.Cost, icfr.Cost)
		}
		if icfr.Cost > icir.Cost*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: IC-FR %v > IC-IR %v", trial, icfr.Cost, icir.Cost)
		}
		checked++
	}
	if checked < 8 {
		t.Fatalf("only %d/25 instances checked", checked)
	}
}

func TestAlternatingNearExactOptimum(t *testing.T) {
	// Empirical quality of the Section 4.3.3 heuristic on tiny
	// instances: within a modest factor of the exact IC-IR optimum when
	// it produces a capacity-feasible solution. (Proposition 4.8 says no
	// worst-case bound exists; this bounds the typical case.)
	rng := rand.New(rand.NewSource(77))
	var ratioSum float64
	count := 0
	for trial := 0; trial < 20; trial++ {
		s := tinySpec(rng)
		icir, err := SolveICIR(nil, s)
		if err != nil {
			continue
		}
		sol, err := core.Alternating(nil, s, core.AlternatingOptions{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.MaxUtilization > 1+1e-6 {
			continue // overloaded rounding; ratio not meaningful
		}
		if icir.Cost <= 1e-9 {
			continue
		}
		ratio := sol.Cost / icir.Cost
		if ratio < 1-1e-6 {
			t.Fatalf("trial %d: heuristic cost %v below exact optimum %v", trial, sol.Cost, icir.Cost)
		}
		ratioSum += ratio
		count++
	}
	if count < 5 {
		t.Skipf("only %d comparable instances", count)
	}
	if avg := ratioSum / float64(count); avg > 1.7 {
		t.Errorf("average alternating/OPT ratio %v too large over %d instances", avg, count)
	}
}

func TestEnumeratePlacementsRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := tinySpec(rng)
	s.ItemSize = []float64{1, 2}
	for v := 1; v < s.G.NumNodes(); v++ {
		s.CacheCap[v] = 2
	}
	count := 0
	err := enumeratePlacements(nil, s, func(pl *placement.Placement) error {
		count++
		return s.CheckFeasible(pl)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no placements enumerated")
	}
}

func TestExactTooLarge(t *testing.T) {
	g := graph.New(10)
	for v := 1; v < 10; v++ {
		g.AddEdge(0, v, 1, 10)
	}
	s := &placement.Spec{
		G:        g,
		NumItems: 6,
		CacheCap: []float64{0, 6, 6, 6, 6, 6, 6, 6, 6, 6},
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, 6),
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, 10)
		s.Rates[i][1+i%9] = 1
	}
	if _, err := SolveICFR(nil, s); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestAllSimplePathsLimit(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(0, 2, 1, 1)
	g.AddEdge(2, 3, 1, 1)
	paths := allSimplePaths(g, 0, 3, 10)
	if len(paths) != 2 {
		t.Errorf("got %d paths, want 2", len(paths))
	}
	if got := allSimplePaths(g, 0, 3, 1); len(got) != 1 {
		t.Errorf("limit ignored: %d paths", len(got))
	}
}
