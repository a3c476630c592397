package lp

import (
	"math"
	"math/rand"
	"testing"
)

// TestDifferentialDualWarmRHS is the dual-forcing differential family:
// random feasible LPs perturbed with RHS-only mutations, the shape that
// leaves a retained basis dual feasible while knocking it primal
// infeasible, so the warm path must take the dual-simplex rung. Every
// instance is solved three ways — through the warm handle, by a fresh
// one-shot sparse primal solve, and by the dense tableau oracle — and all
// three must agree on verdict and (relative 1e-9) objective. The aggregate
// counters must show that the dual rung actually ran, otherwise the suite
// silently tests nothing.
func TestDifferentialDualWarmRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const (
		sequences = 160
		steps     = 3
	)
	var instances int
	var agg SolverStats
	for seq := 0; seq < sequences; seq++ {
		p := randomLP(rng)
		if len(p.cons) == 0 {
			continue
		}
		s := NewSolver()
		if _, err := s.Solve(nil, p); err != nil {
			continue // no retained basis to perturb
		}
		for step := 0; step < steps; step++ {
			i := rng.Intn(len(p.cons))
			if err := p.SetConstraintRHS(i, float64(rng.Intn(17)-8)); err != nil {
				t.Fatal(err)
			}
			instances++
			warmSol, warmErr := s.Solve(nil, p)
			coldSol, coldErr := p.Solve(nil)
			denseSol, denseErr := p.SolveDense(nil)
			wv, cv, dv := verdict(warmErr), verdict(coldErr), verdict(denseErr)
			if wv != cv || cv != dv {
				t.Fatalf("seq %d step %d: verdicts disagree: warm %q primal %q dense %q\n%s",
					seq, step, wv, cv, dv, describeLP(p))
			}
			if coldErr != nil {
				continue
			}
			for _, pair := range []struct {
				name string
				got  float64
			}{{"warm-vs-primal", warmSol.Objective}, {"dense-vs-primal", denseSol.Objective}} {
				diff := math.Abs(pair.got - coldSol.Objective)
				if diff > diffObjTol*(1+math.Abs(coldSol.Objective)) {
					t.Fatalf("seq %d step %d: %s objectives disagree: %v vs %v (diff %g)\n%s",
						seq, step, pair.name, pair.got, coldSol.Objective, diff, describeLP(p))
				}
			}
			if !feasible(p, warmSol.X) {
				t.Fatalf("seq %d step %d: warm solution infeasible\n%s", seq, step, describeLP(p))
			}
		}
		st := s.Stats()
		agg.Solves += st.Solves
		agg.WarmHits += st.WarmHits
		agg.WarmDualHits += st.WarmDualHits
		agg.ColdSolves += st.ColdSolves
		agg.Fallbacks += st.Fallbacks
		agg.PrimalPivots += st.PrimalPivots
		agg.DualPivots += st.DualPivots
		agg.BoundFlips += st.BoundFlips
		agg.Refactors += st.Refactors
	}
	if instances < 200 {
		t.Fatalf("only %d RHS-perturbation instances; the family promises at least 200", instances)
	}
	// The family exists to drive the dual rung: a healthy fraction of the
	// warm hits must have restored feasibility through dual pivots.
	if agg.WarmDualHits < instances/20 {
		t.Errorf("only %d dual warm hits over %d instances; the RHS perturbations are not forcing the dual path", agg.WarmDualHits, instances)
	}
	if agg.DualPivots == 0 {
		t.Error("no dual pivots recorded over the whole family")
	}
	t.Logf("instances=%d stats=%+v", instances, agg)
}

// dualBoxLP is the crafted box instance of the bound-flip tests:
// minimize -x1-x2 subject to x1+x2 <= 3, 0 <= x <= 1. The cold optimum
// parks both variables at their upper bounds with the slack basic, so an
// RHS-only drop makes the slack negative and every repair candidate is a
// boxed column of the pivot row.
func dualBoxLP(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, -1)
	p.SetObjectiveCoeff(1, -1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 3); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDualBoundFlipRatioTest pins the long-step ratio test: dropping the
// row's RHS to 0 leaves a violation of 2, which one bound flip (capacity 1)
// shrinks before the second candidate must enter the basis — one recorded
// flip, one dual exchange, and the optimum moves to the origin.
func TestDualBoundFlipRatioTest(t *testing.T) {
	p := dualBoxLP(t)
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	if err := p.SetConstraintRHS(0, 0); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmDualHits != 1 {
		t.Fatalf("expected the RHS drop to resolve through the dual rung, stats %+v", st)
	}
	if sol.BoundFlips < 1 || sol.DualPivots < 1 {
		t.Errorf("expected >=1 bound flip and >=1 dual exchange, got flips=%d dual=%d", sol.BoundFlips, sol.DualPivots)
	}
	if math.Abs(sol.Objective) > diffObjTol {
		t.Errorf("objective = %v, want 0", sol.Objective)
	}
	dense, err := p.SolveDense(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-dense.Objective) > diffObjTol {
		t.Errorf("warm %v vs dense %v", sol.Objective, dense.Objective)
	}
}

// TestDualBoundFlipOnlyIteration pins the flip-only case: the RHS lands so
// that the candidate flips consume the entire violation to within feasTol,
// the candidate list is exhausted, and the iteration ends with no basis
// exchange at all — two flips, zero dual pivots.
func TestDualBoundFlipOnlyIteration(t *testing.T) {
	p := dualBoxLP(t)
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	// Violation = 2 + eps: both unit-capacity flips are taken (residual
	// stays positive), then the list is exhausted with residual eps, which
	// is within feasTol — a pure bound-flip iteration.
	const eps = 5e-8
	if err := p.SetConstraintRHS(0, -eps); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WarmDualHits != 1 {
		t.Fatalf("expected the RHS drop to resolve through the dual rung, stats %+v", st)
	}
	if sol.BoundFlips < 2 {
		t.Errorf("expected both boxed columns to flip, got flips=%d", sol.BoundFlips)
	}
	if sol.DualPivots != 0 {
		t.Errorf("expected a flip-only dual iteration (no exchange), got dual=%d", sol.DualPivots)
	}
	if math.Abs(sol.Objective) > 1e-6 {
		t.Errorf("objective = %v, want ~0", sol.Objective)
	}
}

// TestStabilityTriggeredRefactor pins the Forrest-Tomlin-style stability
// discipline: an update whose pivot element is relatively tiny must be
// refused in favor of a fresh factorization, not absorbed. The test-only
// forceUnstableUpdate hook makes the first eta append of a solve report
// instability; the solve must complete with one extra refactorization and
// the identical objective.
func TestStabilityTriggeredRefactor(t *testing.T) {
	build := func() *Problem {
		p := NewProblem(3)
		p.SetSense(Maximize)
		for j := 0; j < 3; j++ {
			p.SetObjectiveCoeff(j, float64(j+1))
			p.SetBounds(j, 0, 10)
		}
		for _, row := range [][3]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}} {
			if err := p.AddConstraint([]int{0, 1, 2}, []float64{row[0], row[1], row[2]}, LE, 4); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	base, err := build().Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.EtaUpdates == 0 {
		t.Fatalf("baseline solve performed no eta updates (pivots=%d); the hook would not fire", base.Pivots)
	}
	forceUnstableUpdate = true
	forced, err := build().Solve(nil)
	forceUnstableUpdate = false
	if err != nil {
		t.Fatal(err)
	}
	if forced.Refactors != base.Refactors+1 {
		t.Errorf("forced-unstable solve refactored %d times, want %d (baseline %d + 1)",
			forced.Refactors, base.Refactors+1, base.Refactors)
	}
	if forced.EtaUpdates >= base.EtaUpdates+1 {
		t.Errorf("refused update still appended: %d etas vs baseline %d", forced.EtaUpdates, base.EtaUpdates)
	}
	if math.Abs(forced.Objective-base.Objective) > diffObjTol*(1+math.Abs(base.Objective)) {
		t.Errorf("objective moved under a forced refactorization: %v vs %v", forced.Objective, base.Objective)
	}
}

// TestNearSingularWarmUpdates stresses the stability trigger on nearly
// dependent columns: bases mixing x1 and x2 with x1+x2 differ from
// singular by eps, so the product-form updates run close to the ftStabTol
// floor. Across a sweep of eps the warm handle must keep agreeing with the
// dense oracle after RHS perturbations.
func TestNearSingularWarmUpdates(t *testing.T) {
	for _, eps := range []float64{1e-6, 1e-8, 1e-10, 1e-12} {
		p := NewProblem(3)
		p.SetSense(Maximize)
		p.SetObjectiveCoeff(0, 1)
		p.SetObjectiveCoeff(1, 1)
		p.SetObjectiveCoeff(2, 2-eps)
		for j := 0; j < 3; j++ {
			p.SetBounds(j, 0, 100)
		}
		// Column 2 is (1, 1+eps): within eps of the sum of columns 0 and 1.
		if err := p.AddConstraint([]int{0, 2}, []float64{1, 1}, LE, 10); err != nil {
			t.Fatal(err)
		}
		if err := p.AddConstraint([]int{1, 2}, []float64{1, 1 + eps}, LE, 10); err != nil {
			t.Fatal(err)
		}
		s := NewSolver()
		if _, err := s.Solve(nil, p); err != nil {
			t.Fatalf("eps=%g: %v", eps, err)
		}
		for step, rhs := range []float64{4, 12, 6} {
			if err := p.SetConstraintRHS(step%2, rhs); err != nil {
				t.Fatal(err)
			}
			warm, err := s.Solve(nil, p)
			if err != nil {
				t.Fatalf("eps=%g step %d: warm: %v", eps, step, err)
			}
			dense, err := p.SolveDense(nil)
			if err != nil {
				t.Fatalf("eps=%g step %d: dense: %v", eps, step, err)
			}
			// Near-singular data amplifies legitimate roundoff: compare at
			// the dense oracle's own differential tolerance scaled by the
			// conditioning, not at diffObjTol.
			tol := diffObjTol / math.Max(eps, 1e-9)
			if diff := math.Abs(warm.Objective - dense.Objective); diff > tol*(1+math.Abs(dense.Objective)) {
				t.Errorf("eps=%g step %d: warm %v vs dense %v (diff %g)", eps, step, warm.Objective, dense.Objective, diff)
			}
		}
	}
}
