package lp

import (
	"context"
	"slices"
)

// In-place data edits of a solved Problem, for the warm-start tests.

// setRHS replaces the right-hand side of constraint i in place, a data-only
// edit that keeps p's skeleton, so a Solver that solved p may warm-start
// across it.
func setRHS(p *Problem, i int, rhs float64) { p.cons[i].rhs = rhs }

// setCoeff replaces the value of the k-th entry of constraint i's index
// pattern in place. Zero is allowed and keeps the entry in the skeleton.
func setCoeff(p *Problem, i, k int, v float64) { p.cons[i].val[k] = v }

// ObserveSolves returns ctx carrying observe, which every Solve under it
// calls with its handle (nil for one-shot) and problem before solving.
func ObserveSolves(ctx context.Context, observe func(*Solver, *Problem)) context.Context {
	return context.WithValue(ctx, observerKey{}, observe)
}

// Clone deep-copies p, so a captured problem survives later in-place edits.
func (p *Problem) Clone() *Problem {
	q := *p
	q.obj = slices.Clone(p.obj)
	q.lower = slices.Clone(p.lower)
	q.upper = slices.Clone(p.upper)
	q.cons = make([]constraint, len(p.cons))
	for i, c := range p.cons {
		q.cons[i] = constraint{idx: slices.Clone(c.idx), val: slices.Clone(c.val), op: c.op, rhs: c.rhs}
	}
	q.seen = nil
	return &q
}

// PivotTraceStats summarizes a CheckPivotTraces run.
type PivotTraceStats struct{ Solves, Warm, Pivots int }

// CheckPivotTraces solves ps in order through the pivot-trace oracle (one
// handle, so problems sharing a skeleton warm-start) and returns the first
// disagreement between the production and the reference kernels.
func CheckPivotTraces(ps []*Problem) (PivotTraceStats, error) {
	o := newPivotTraceOracle()
	for _, p := range ps {
		if err := o.check(p); err != nil {
			return PivotTraceStats{}, err
		}
	}
	return PivotTraceStats{Solves: o.solves, Warm: o.warm, Pivots: o.pivots}, nil
}
