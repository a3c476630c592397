package exact_test

// The alternating optimizer is the "alternating" strategy, and the strategy
// package registers the exact solvers, so comparing the two lives in the
// external test package.

import (
	"math/rand"
	"testing"

	"jcr/internal/exact"
	"jcr/internal/strategy"
)

func TestAlternatingNearExactOptimum(t *testing.T) {
	// Empirical quality of the Section 4.3.3 heuristic on tiny
	// instances: within a modest factor of the exact IC-IR optimum when
	// it produces a capacity-feasible solution. (Proposition 4.8 says no
	// worst-case bound exists; this bounds the typical case.)
	rng := rand.New(rand.NewSource(77))
	var ratioSum float64
	count := 0
	for trial := 0; trial < 20; trial++ {
		s := exact.TinySpec(rng)
		icir, err := exact.SolveICIR(nil, s)
		if err != nil {
			continue
		}
		alt := &strategy.Alternating{Options: strategy.Options{Rng: rng, NoSolverReuse: true}}
		sol, _, err := alt.Decide(nil, strategy.Instance{Spec: s})
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
