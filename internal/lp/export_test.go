package lp

// In-place data edits of a solved Problem, for the warm-start tests.

// setRHS replaces the right-hand side of constraint i in place, a data-only
// edit that keeps p's skeleton, so a Solver that solved p may warm-start
// across it.
func setRHS(p *Problem, i int, rhs float64) { p.cons[i].rhs = rhs }

// setCoeff replaces the value of the k-th entry of constraint i's index
// pattern in place. Zero is allowed and keeps the entry in the skeleton.
func setCoeff(p *Problem, i, k int, v float64) { p.cons[i].val[k] = v }
