package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// perturb applies one random data-only mutation to p: objective, bounds,
// right-hand side, an existing coefficient value, or the sense. Every
// mutation keeps the structural skeleton intact, so a Solver handle is
// entitled to warm-start across it.
func perturb(rng *rand.Rand, p *Problem) {
	n := p.NumVars()
	switch rng.Intn(5) {
	case 0:
		p.SetObjectiveCoeff(rng.Intn(n), float64(rng.Intn(9)-4))
	case 1:
		j := rng.Intn(n)
		lo := float64(rng.Intn(7) - 3)
		hi := lo + float64(rng.Intn(8))
		if rng.Intn(8) == 0 {
			hi = math.Inf(1)
		}
		p.SetBounds(j, lo, hi)
	case 2:
		if len(p.cons) > 0 {
			i := rng.Intn(len(p.cons))
			if err := p.SetConstraintRHS(i, float64(rng.Intn(17)-8)); err != nil {
				panic(err) // generator bug: RHS values are finite
			}
		}
	case 3:
		if len(p.cons) > 0 {
			i := rng.Intn(len(p.cons))
			c := &p.cons[i]
			if len(c.idx) > 0 {
				j := c.idx[rng.Intn(len(c.idx))]
				if err := p.SetConstraintCoeff(i, j, float64(rng.Intn(9)-4)); err != nil {
					panic(err) // generator bug: j comes from the row's own pattern
				}
			}
		}
	default:
		if p.sense == Minimize {
			p.SetSense(Maximize)
		} else {
			p.SetSense(Minimize)
		}
	}
}

// TestDifferentialWarmVsCold is the warm-start differential suite: random
// perturbation sequences over the randomLP family, each step solved twice —
// through a shared Solver handle (warm when the skeleton held) and by a
// fresh one-shot cold solve. Verdicts must be identical and optimal
// objectives must agree within diffObjTol (1e-9 relative), the same pin the
// sparse-vs-dense suite uses. Solutions may differ (alternate optima);
// objective and verdict may not. Infeasible→feasible and feasible→
// infeasible transitions arise naturally from the RHS mutations; the suite
// asserts it saw both, and that warm starts actually happened (otherwise it
// silently tests nothing).
func TestDifferentialWarmVsCold(t *testing.T) {
	rng := rand.New(rand.NewSource(271828))
	const (
		sequences = 60
		steps     = 6 // plus the initial solve: 7 compared instances per sequence
	)
	var instances, transitions int
	var agg SolverStats
	for seq := 0; seq < sequences; seq++ {
		p := randomLP(rng)
		s := NewSolver()
		prevVerdict := ""
		for step := 0; step <= steps; step++ {
			if step > 0 {
				perturb(rng, p)
				if rng.Intn(12) == 0 {
					// Occasional structural growth: the handle must
					// detect it and re-solve cold.
					j := rng.Intn(p.NumVars())
					if err := p.AddConstraint([]int{j}, []float64{1}, LE, float64(rng.Intn(9))); err != nil {
						t.Fatal(err)
					}
				}
			}
			instances++
			warmSol, warmErr := s.Solve(nil, p)
			coldSol, coldErr := p.Solve(nil)
			wv, cv := verdict(warmErr), verdict(coldErr)
			if wv != cv {
				t.Fatalf("seq %d step %d: verdicts disagree: solver %q one-shot %q\n%s",
					seq, step, wv, cv, describeLP(p))
			}
			if prevVerdict != "" && prevVerdict != cv {
				transitions++
			}
			prevVerdict = cv
			if coldErr != nil {
				continue
			}
			diff := math.Abs(warmSol.Objective - coldSol.Objective)
			if diff > diffObjTol*(1+math.Abs(coldSol.Objective)) {
				t.Fatalf("seq %d step %d: objectives disagree: solver %v one-shot %v (diff %g)\n%s",
					seq, step, warmSol.Objective, coldSol.Objective, diff, describeLP(p))
			}
			if !feasible(p, warmSol.X) {
				t.Fatalf("seq %d step %d: solver solution infeasible\n%s", seq, step, describeLP(p))
			}
		}
		st := s.Stats()
		agg.Solves += st.Solves
		agg.WarmHits += st.WarmHits
		agg.ColdSolves += st.ColdSolves
		agg.Fallbacks += st.Fallbacks
		agg.DenseFallbacks += st.DenseFallbacks
	}
	if instances < 200 {
		t.Fatalf("only %d perturbation instances; the suite promises at least 200", instances)
	}
	// The suite must exercise what it claims to: real warm starts and
	// verdict transitions (infeasible<->feasible boundaries).
	if agg.WarmHits < instances/4 {
		t.Errorf("only %d warm hits over %d instances; perturbations are not exercising the warm path", agg.WarmHits, instances)
	}
	if transitions == 0 {
		t.Errorf("no verdict transitions over %d instances; strengthen the perturbations", instances)
	}
	t.Logf("instances=%d transitions=%d stats=%+v", instances, transitions, agg)
}

// TestDifferentialWarmRHS is the RHS-perturbation differential family:
// random feasible LPs perturbed with RHS-only mutations, the shape that
// either leaves a retained basis primal feasible (a warm hit) or knocks it
// primal infeasible (a fallback to the cold solve). Every instance is
// solved three ways — through the warm handle, by a fresh one-shot sparse
// solve, and by the dense tableau oracle — and all three must agree on
// verdict and (relative 1e-9) objective. The aggregate counters must show
// that both ladder branches ran, otherwise the suite silently tests only
// one of them.
func TestDifferentialWarmRHS(t *testing.T) {
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
				t.Fatalf("seq %d step %d: verdicts disagree: warm %q one-shot %q dense %q\n%s",
					seq, step, wv, cv, dv, describeLP(p))
			}
			if coldErr != nil {
				continue
			}
			for _, pair := range []struct {
				name string
				got  float64
			}{{"warm-vs-one-shot", warmSol.Objective}, {"dense-vs-one-shot", denseSol.Objective}} {
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
		agg.ColdSolves += st.ColdSolves
		agg.Fallbacks += st.Fallbacks
		agg.PrimalPivots += st.PrimalPivots
		agg.BoundFlips += st.BoundFlips
		agg.Refactors += st.Refactors
	}
	if instances < 200 {
		t.Fatalf("only %d RHS-perturbation instances; the family promises at least 200", instances)
	}
	// The family exists to drive both branches of the ladder: retained
	// bases that survive an RHS move and ones that it knocks infeasible.
	if agg.WarmHits == 0 || agg.Fallbacks == 0 {
		t.Errorf("warm hits %d, fallbacks %d over %d instances; the RHS perturbations must exercise both", agg.WarmHits, agg.Fallbacks, instances)
	}
	t.Logf("instances=%d stats=%+v", instances, agg)
}

// TestSolverDeltaRecompute drives the RHS-delta FTRAN across its periodic
// full recomputation: BenchmarkSolverWarmPerturb's schedule of RHS and
// objective moves on the minimising MMSFP-sized instance, run long enough
// that deltaRecompute consecutive delta solves trip the recompute twice.
// Every solve after the first must be a warm hit and match a one-shot
// solve, and the basic values it leaves behind must match a fresh
// recomputation (the optimum sits at the origin, so the objective alone
// would not notice stale slacks).
func TestSolverDeltaRecompute(t *testing.T) {
	p := MMSFPSizedLP(12, 150, 7)
	rng := rand.New(rand.NewSource(11))
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	const solves = 2*deltaRecompute + 2
	recomputes := 0
	var kept []float64
	for i := 0; i < solves; i++ {
		if err := p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 5+rng.Float64()); err != nil {
			t.Fatal(err)
		}
		p.SetObjectiveCoeff(rng.Intn(p.NumVars()), 1+rng.Float64())
		warm, err := s.Solve(nil, p)
		if err != nil {
			t.Fatalf("solve %d: warm: %v", i, err)
		}
		if s.deltaSolves == 0 {
			recomputes++
		}
		kept = append(kept[:0], s.r.beta...)
		s.r.recomputeBeta()
		for row, v := range s.r.beta {
			if diff := math.Abs(kept[row] - v); diff > diffObjTol*(1+math.Abs(v)) {
				t.Fatalf("solve %d: basic value %d is %v, fresh recomputation %v", i, row, kept[row], v)
			}
		}
		copy(s.r.beta, kept) // keep the delta path's own values for the next solve
		cold, err := p.Solve(nil)
		if err != nil {
			t.Fatalf("solve %d: one-shot: %v", i, err)
		}
		if diff := math.Abs(warm.Objective - cold.Objective); diff > diffObjTol*(1+math.Abs(cold.Objective)) {
			t.Fatalf("solve %d: warm %v vs one-shot %v (diff %g)", i, warm.Objective, cold.Objective, diff)
		}
	}
	if st := s.Stats(); st.WarmHits != solves || st.ColdSolves != 1 {
		t.Errorf("want %d warm hits after one cold solve, got %+v", solves, st)
	}
	if recomputes < 2 {
		t.Errorf("the delta FTRAN took its periodic full recompute %d times, want >= 2", recomputes)
	}
}

// TestSolverStructuralChangeInvalidatesBasis covers the satellite edge case
// of a skeleton change between solves: the handle must notice the added
// row, abandon the retained basis, and still agree with a one-shot solve.
func TestSolverStructuralChangeInvalidatesBasis(t *testing.T) {
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.SetBounds(0, 0, 4)
	p.SetBounds(1, 0, 4)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 6); err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	sol, err := s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-6) > diffObjTol {
		t.Fatalf("objective %v, want 6", sol.Objective)
	}
	// Structural change: a new row tightening x0.
	if err := p.AddConstraint([]int{0}, []float64{1}, LE, 1); err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > diffObjTol {
		t.Fatalf("objective after structural change %v, want 5", sol.Objective)
	}
	st := s.Stats()
	if st.WarmHits != 0 || st.ColdSolves != 2 {
		t.Fatalf("stats %+v: a structural change must force a second cold solve", st)
	}
	// A data-only follow-up on the grown skeleton must warm-start again.
	if err := p.SetConstraintRHS(1, 2); err != nil {
		t.Fatal(err)
	}
	sol, err = s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-6) > diffObjTol {
		t.Fatalf("objective after RHS relaxation %v, want 6", sol.Objective)
	}
	if st = s.Stats(); st.WarmHits != 1 {
		t.Fatalf("stats %+v: the RHS-only follow-up should have warm-started", st)
	}
}

// TestSolverInfeasibleToFeasible covers RHS transitions across the
// feasibility boundary in both directions. An infeasible solve leaves no
// basis to retain, so the first feasible solve after it is cold; once
// feasible, small RHS moves warm-start.
func TestSolverInfeasibleToFeasible(t *testing.T) {
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 2)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 10)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, GE, 25); err != nil {
		t.Fatal(err) // > 10+10: infeasible
	}
	s := NewSolver()
	if _, err := s.Solve(nil, p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if err := p.SetConstraintRHS(0, 5); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > diffObjTol {
		t.Fatalf("objective %v, want 5 (all on the cheap variable)", sol.Objective)
	}
	if st := s.Stats(); st.WarmHits != 0 || st.ColdSolves != 2 {
		t.Fatalf("stats %+v: infeasible leaves no basis, so the recovery must be cold", st)
	}
	// Feasible -> feasible: warm.
	if err := p.SetConstraintRHS(0, 7); err != nil {
		t.Fatal(err)
	}
	if sol, err = s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-7) > diffObjTol {
		t.Fatalf("objective %v, want 7", sol.Objective)
	}
	if st := s.Stats(); st.WarmHits != 1 {
		t.Fatalf("stats %+v: feasible-to-feasible RHS move should warm-start", st)
	}
	// Feasible -> infeasible: the warm attempt loses primal feasibility,
	// falls back cold, and the cold solve proves infeasibility.
	if err := p.SetConstraintRHS(0, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil, p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible after tightening, got %v", err)
	}
	st := s.Stats()
	if st.Fallbacks == 0 {
		t.Fatalf("stats %+v: the infeasible transition should have abandoned a warm attempt", st)
	}
	// And back again: recovery is cold (no basis survives infeasibility).
	if err := p.SetConstraintRHS(0, 5); err != nil {
		t.Fatal(err)
	}
	if sol, err = s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > diffObjTol {
		t.Fatalf("objective %v, want 5 after recovery", sol.Objective)
	}
}

// TestSolverForcedNumericFallback forces the warm path's refactorization to
// report the errNumeric condition and checks the attempt degrades to a cold
// solve with the correct result.
func TestSolverForcedNumericFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := MMSFPSizedLP(4, 40, 7)
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	if err := p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 9); err != nil {
		t.Fatal(err)
	}
	s.forceNextWarmNumericFailure()
	sol, err := s.Solve(nil, p)
	if s.warmNumericFailurePending() {
		t.Fatal("warm attempt never consumed the forced failure")
	}
	if err != nil {
		t.Fatal(err)
	}
	ref, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(sol.Objective - ref.Objective); diff > diffObjTol*(1+math.Abs(ref.Objective)) {
		t.Fatalf("objective after forced fallback %v, want %v", sol.Objective, ref.Objective)
	}
	st := s.Stats()
	if st.Fallbacks != 1 || st.ColdSolves != 2 || st.WarmHits != 0 {
		t.Fatalf("stats %+v: want exactly one fallback into a second cold solve", st)
	}
	// The handle recovers: the next data-only solve warm-starts.
	if err := p.SetConstraintRHS(0, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	if st = s.Stats(); st.WarmHits != 1 {
		t.Fatalf("stats %+v: the handle should recover a warm start after the forced failure", st)
	}
}

// TestSolverNilHandle pins the nil-receiver contract: a nil *Solver solves
// one-shot, bit-identical to Problem.Solve.
func TestSolverNilHandle(t *testing.T) {
	p := MMSFPSizedLP(3, 30, 5)
	var s *Solver
	got, err := s.Solve(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	//jcrlint:allow float-eq: the two paths must be bit-identical, not merely close
	if got.Objective != want.Objective || got.Pivots != want.Pivots {
		t.Fatalf("nil handle diverged: got (%v, %d pivots) want (%v, %d pivots)",
			got.Objective, got.Pivots, want.Objective, want.Pivots)
	}
	s.Invalidate() // must not panic
	if st := s.Stats(); st.Solves != 0 {
		t.Fatalf("nil handle reported stats %+v", st)
	}
}

// TestSolverRebuiltProblemWarmStarts pins the cross-instance match: a
// caller that rebuilds a structurally identical Problem (the placement and
// routing layers do exactly this every round) still warm-starts.
func TestSolverRebuiltProblemWarmStarts(t *testing.T) {
	build := func(rhs float64) *Problem {
		p := NewProblem(3)
		p.SetSense(Maximize)
		for j := 0; j < 3; j++ {
			p.SetBounds(j, 0, 2)
			p.SetObjectiveCoeff(j, float64(j+1))
		}
		if err := p.AddConstraint([]int{0, 1, 2}, []float64{1, 1, 1}, LE, rhs); err != nil {
			t.Fatal(err)
		}
		return p
	}
	s := NewSolver()
	if _, err := s.Solve(nil, build(3)); err != nil {
		t.Fatal(err)
	}
	sol, err := s.Solve(nil, build(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-10) > diffObjTol {
		t.Fatalf("objective %v, want 10 (x1=x2=2)", sol.Objective)
	}
	if st := s.Stats(); st.WarmHits != 1 {
		t.Fatalf("stats %+v: a rebuilt identical skeleton must warm-start", st)
	}
}

// TestSolverBoundBecomesInfinite covers the nonbasic-at-upper corner: after
// an upper bound a variable rested at grows to +Inf, the warm path must
// move it to its lower bound rather than price an infinite activity.
func TestSolverBoundBecomesInfinite(t *testing.T) {
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 3) // wants its upper bound
	p.SetObjectiveCoeff(1, 1)
	p.SetBounds(0, 0, 2)
	p.SetBounds(1, 0, 5)
	if err := p.AddConstraint([]int{0, 1}, []float64{1, 1}, LE, 6); err != nil {
		t.Fatal(err)
	}
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		t.Fatal(err)
	}
	p.SetBounds(0, 0, math.Inf(1))
	p.SetObjectiveCoeff(0, -1) // now it wants to be zero
	sol, err := s.Solve(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-5) > diffObjTol {
		t.Fatalf("objective %v, want 5 (x0=0, x1=5)", sol.Objective)
	}
	ref, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(sol.Objective - ref.Objective); diff > diffObjTol {
		t.Fatalf("solver %v vs one-shot %v", sol.Objective, ref.Objective)
	}
}

// TestStabilityTriggeredRefactor pins the Forrest-Tomlin-style stability
// discipline: an update whose pivot element is relatively tiny must be
// refused in favor of a fresh factorization, not absorbed. The test-only
// forceUnstableUpdate hook makes the first eta append of a solve report
// instability (solveForcingUnstableUpdate sets it on the solve's
// factorization); the solve must complete with one extra refactorization
// and the identical objective.
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
	forced, err := solveForcingUnstableUpdate(build())
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

// BenchmarkSolverWarmPerturb measures a warm-started solve sequence on the
// MMSFP-sized instance: each iteration perturbs right-hand sides and
// objective and re-solves through the shared handle. Compare against
// BenchmarkSolverColdPerturb (same mutation schedule, fresh solve each
// time) for the warm-vs-cold ratio benchjson records.
func BenchmarkSolverWarmPerturb(b *testing.B) {
	benchmarkSolverPerturb(b, true)
}

// BenchmarkSolverColdPerturb is the cold baseline of the pair above.
func BenchmarkSolverColdPerturb(b *testing.B) {
	benchmarkSolverPerturb(b, false)
}

func benchmarkSolverPerturb(b *testing.B, warm bool) {
	p := MMSFPSizedLP(12, 150, 7)
	rng := rand.New(rand.NewSource(11))
	s := NewSolver()
	if _, err := s.Solve(nil, p); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 5+rng.Float64()); err != nil {
			b.Fatal(err)
		}
		p.SetObjectiveCoeff(rng.Intn(p.NumVars()), 1+rng.Float64())
		var err error
		if warm {
			_, err = s.Solve(nil, p)
		} else {
			_, err = p.Solve(nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if warm {
		st := s.Stats()
		b.ReportMetric(float64(st.WarmHits)/float64(st.Solves), "warmhit/solve")
	}
}
