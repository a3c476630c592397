package lp

// Hooks that force the rarely taken numeric paths of the simplex. Each sets
// state on one factorization, so tests that force failures can run in
// parallel with any other solve.

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

// setRHS replaces the right-hand side of constraint i in place, a data-only
// edit that keeps p's skeleton, so a Solver that solved p may warm-start
// across it.
func setRHS(p *Problem, i int, rhs float64) { p.cons[i].rhs = rhs }

// setCoeff replaces the value of the k-th entry of constraint i's index
// pattern in place. Zero is allowed and keeps the entry in the skeleton.
func setCoeff(p *Problem, i, k int, v float64) { p.cons[i].val[k] = v }
