// Package lp implements a sparse revised two-phase primal simplex solver
// with bounded variables: an LU-factored basis with eta updates and warm
// starts through a reusable Solver. It is the numerical substrate for every
// linear program in the joint caching and routing library: the auxiliary
// placement LP (paper Eq. (7)), the per-path placement LP (Eq. (15)), the
// splittable multicommodity routing LPs (MMSFP), and the fully fractional
// FC-FR case. A dense tableau simplex in the tests is its differential
// oracle.
//
// The solver handles problems of the form
//
//	min / max  c'x
//	s.t.       A_i x  {<=, =, >=}  b_i     for each constraint i
//	           l_j <= x_j <= u_j           for each variable j
//
// with finite lower bounds (the library's LPs are all of this shape).
// Upper bounds may be +Inf. Anti-cycling is guaranteed by switching to
// Bland's rule after a run of degenerate pivots.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Sense selects minimization or maximization of the objective.
type Sense int

// Objective senses.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Op is a constraint comparison operator.
type Op int

// Constraint operators.
const (
	LE Op = iota + 1 // A_i x <= b_i
	GE               // A_i x >= b_i
	EQ               // A_i x  = b_i
)

// Solver failure modes.
var (
	// ErrInfeasible reports that no point satisfies all constraints.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded reports that the objective is unbounded over the
	// feasible region.
	ErrUnbounded = errors.New("lp: unbounded")
	// ErrIterationLimit reports that the pivot limit was exhausted,
	// which indicates numerical trouble on the instance.
	ErrIterationLimit = errors.New("lp: iteration limit exceeded")
	// ErrBadConstraint reports a constraint with non-finite data or
	// duplicate variable indices; admitting such a row would silently
	// corrupt the basis, so it is rejected at construction time.
	ErrBadConstraint = errors.New("lp: invalid constraint")
)

type constraint struct {
	idx []int
	val []float64
	op  Op
	rhs float64
}

// Problem is a linear program under construction. Create one with
// NewProblem, then set the objective, bounds, and constraints.
type Problem struct {
	nvars int
	obj   []float64
	sense Sense
	lower []float64
	upper []float64
	cons  []constraint

	// seen/seenGen implement an O(k) duplicate-index check per added row:
	// seen[j] == seenGen marks j as present in the row being validated.
	seen    []int
	seenGen int

	// structGen counts structural mutations (constraint additions). The
	// objective, bounds, right-hand sides, and coefficient values of
	// existing skeleton entries are data; the variable count, the
	// operators, and the index patterns are structure. A reusable Solver
	// warm-starts only across data changes, and uses structGen to detect
	// cheaply that an instance it solved before kept its skeleton.
	structGen int
}

// NewProblem returns a problem with n variables, default bounds [0, +Inf),
// zero objective, and minimization sense.
func NewProblem(n int) *Problem {
	p := &Problem{
		nvars: n,
		obj:   make([]float64, n),
		sense: Minimize,
		lower: make([]float64, n),
		upper: make([]float64, n),
	}
	for j := range p.upper {
		p.upper[j] = math.Inf(1)
	}
	return p
}

// NumVars reports the number of variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints reports the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObjectiveCoeff sets the objective coefficient of variable j. A NaN or
// infinite coefficient panics as a programming error: it would otherwise
// surface as a NaN or infinite optimum with no error.
func (p *Problem) SetObjectiveCoeff(j int, c float64) {
	if math.IsNaN(c) || math.IsInf(c, 0) {
		//jcrlint:allow lib-panic: programmer-error guard; objectives are built from validated model data
		panic(fmt.Sprintf("lp: objective coefficient of x_%d must be finite, got %v", j, c))
	}
	p.obj[j] = c
}

// SetSense selects minimization or maximization.
func (p *Problem) SetSense(s Sense) {
	p.sense = s
}

// SetBounds sets l <= x_j <= u. The lower bound must be finite and not
// exceed the upper bound; violations panic as they are programming errors.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	if math.IsInf(lo, -1) || math.IsNaN(lo) || math.IsNaN(hi) {
		//jcrlint:allow lib-panic: programmer-error guard; bounds are built from validated model data
		panic(fmt.Sprintf("lp: lower bound of x_%d must be finite, got [%v, %v]", j, lo, hi))
	}
	if lo > hi {
		//jcrlint:allow lib-panic: programmer-error guard; bounds are built from validated model data
		panic(fmt.Sprintf("lp: empty bound interval [%v, %v] for x_%d", lo, hi, j))
	}
	p.lower[j] = lo
	p.upper[j] = hi
}

// AddConstraint adds the sparse constraint sum_k val[k]*x[idx[k]] (op) rhs.
// The idx/val slices are copied. Rows with NaN or infinite coefficients or
// right-hand sides, and rows that mention the same variable twice, are
// rejected with an error wrapping ErrBadConstraint: both would silently
// corrupt the simplex basis. Use RowBuilder to accumulate coefficients when
// several terms may land on the same variable.
func (p *Problem) AddConstraint(idx []int, val []float64, op Op, rhs float64) error {
	if len(idx) != len(val) {
		//jcrlint:allow lib-panic: programmer-error guard; a mismatched sparse row is a caller bug
		panic("lp: AddConstraint index/value length mismatch")
	}
	for _, j := range idx {
		if j < 0 || j >= p.nvars {
			//jcrlint:allow lib-panic: programmer-error guard; variable indices come from the caller's own numbering
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", j, p.nvars))
		}
	}
	if err := p.validateRow(idx, val, rhs); err != nil {
		return err
	}
	p.cons = append(p.cons, constraint{
		idx: append([]int(nil), idx...),
		val: append([]float64(nil), val...),
		op:  op,
		rhs: rhs,
	})
	p.structGen++
	return nil
}

// validateRow rejects non-finite data and duplicate indices in constraint
// row len(cons) (the one about to be appended).
func (p *Problem) validateRow(idx []int, val []float64, rhs float64) error {
	row := len(p.cons)
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("%w: constraint %d has non-finite right-hand side %v", ErrBadConstraint, row, rhs)
	}
	for k, v := range val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: constraint %d has non-finite coefficient %v for x_%d", ErrBadConstraint, row, v, idx[k])
		}
	}
	if p.seen == nil {
		p.seen = make([]int, p.nvars)
	}
	p.seenGen++
	for _, j := range idx {
		if p.seen[j] == p.seenGen {
			return fmt.Errorf("%w: constraint %d mentions x_%d more than once", ErrBadConstraint, row, j)
		}
		p.seen[j] = p.seenGen
	}
	return nil
}

// Solution is the result of a successful solve.
type Solution struct {
	// X holds the optimal variable values.
	X []float64
	// Objective is the optimal objective value in the problem's sense.
	Objective float64
	// Pivots counts simplex iterations across both phases, including
	// bound flips; on the sparse path it is PrimalPivots + BoundFlips.
	Pivots int
	// PrimalPivots counts basis exchanges.
	PrimalPivots int
	// BoundFlips counts entering variables that crossed their box from one
	// bound to the other without a basis change (the ratio test's long
	// step).
	BoundFlips int
	// Refactors counts basis LU (re)factorizations, including the
	// initial one of a cold solve.
	Refactors int
	// EtaUpdates and EtaNNZ count product-form basis updates appended to
	// the eta file and their total stored off-pivot nonzeros; their ratio
	// is the average eta density.
	EtaUpdates int
	EtaNNZ     int
}

// Value evaluates the problem's objective at x.
func (p *Problem) Value(x []float64) float64 {
	var v float64
	for j, c := range p.obj {
		v += c * x[j]
	}
	return v
}

const (
	pivotTol = 1e-9
	feasTol  = 1e-7
	costTol  = 1e-9
	ratioTol = 1e-12 // ratio-test tie margin in the leaving-variable choice
	degenRun = 64    // consecutive degenerate pivots before Bland's rule

	// infeasRelTol scales the phase-1 verdict with the data: roundoff in
	// the artificial sum grows with the right-hand sides, so a problem
	// whose |b| reaches 1e8 (rates in bits) leaves residuals near 1e-7 on
	// a feasible instance.
	infeasRelTol = 1e-12
)

// phase1Tol is the artificial sum above which phase 1 declares a problem
// infeasible: feasTol plus infeasRelTol times the largest |b_i|.
func phase1Tol(rhs []float64) float64 {
	var bmax float64
	for _, b := range rhs {
		bmax = math.Max(bmax, math.Abs(b))
	}
	return feasTol + infeasRelTol*bmax
}

// Solve runs the bounded-variable simplex method and returns an optimal
// solution, or ErrInfeasible / ErrUnbounded / ErrIterationLimit. It is the
// one-shot solve, identical to (*Solver)(nil).Solve(ctx, p).
//
// The pivot loop polls ctx every ctxCheckPivots pivots (the first poll
// precedes the first pivot) and aborts with an error wrapping ctx.Err()
// once the context is done, so a caller-imposed deadline actually stops a
// numerically stuck instance instead of waiting out the pivot limit. A nil
// ctx means no cancellation.
//
// The working method is the sparse revised simplex (see revised.go). If its
// basis factorization degenerates numerically, the solve fails with an
// error; callers treat it like any other failed solve.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	return (*Solver)(nil).Solve(ctx, p)
}
