package lp

// Hooks that force the rarely taken numeric paths of the simplex. Each sets
// state on one Solver or one factorization, so tests that force failures
// can run in parallel with any other solve.

// forceNextWarmNumericFailure makes s's next warm-start attempt treat its
// basis refactorization as numerically singular.
func (s *Solver) forceNextWarmNumericFailure() { s.forceWarmNumericFailure = true }

// warmNumericFailurePending reports whether the forced failure is still
// waiting for a warm attempt to consume it.
func (s *Solver) warmNumericFailurePending() bool { return s.forceWarmNumericFailure }

// solveForcingUnstableUpdate solves p one-shot on the sparse simplex, with
// the first eta update of its factorization reported as unstable.
func solveForcingUnstableUpdate(p *Problem) (*Solution, error) {
	r := newRevised(p)
	if err := r.factorInitial(); err != nil {
		return nil, err
	}
	r.b.forceUnstableUpdate = true
	if err := r.phases(); err != nil {
		return nil, err
	}
	x := r.extract()
	sol := &Solution{X: x, Objective: p.Value(x), Pivots: r.pivots}
	r.fillCounters(sol)
	return sol, nil
}
