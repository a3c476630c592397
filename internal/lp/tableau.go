package lp

import (
	"context"
	"fmt"
	"math"
)

// tableau is the dense simplex working state. Variables are shifted so
// every column has lower bound 0 and upper bound ub[j] (possibly +Inf).
// beta[i] stores the current VALUE of the basic variable of row i, not
// B^-1 b; values are updated directly along pivot directions, which keeps
// the bounded-variable bookkeeping simple.
type tableau struct {
	p *Problem

	m, n    int // rows, total columns
	nStruct int // structural columns (p.nvars)
	artFrom int // first artificial column index

	a      []float64 // m x n row-major tableau matrix B^-1 A
	beta   []float64 // values of basic variables, len m
	z      []float64 // reduced costs, len n
	ub     []float64 // upper bounds of shifted columns, len n
	basis  []int     // basis[i] = column basic in row i
	inRow  []int     // inRow[j] = row where column j is basic, or -1
	atUp   []bool    // nonbasic-at-upper-bound flags
	frozen []bool    // columns barred from entering (artificials that left)

	pivots     int
	degenerate int // consecutive degenerate pivots

	// ctx, when non-nil, is polled every ctxCheckPivots pivots so a
	// caller deadline stops the solver mid-run (see Problem.Solve).
	ctx context.Context
}

// ctxCheckPivots is how many pivots run between cancellation polls: rare
// enough that ctx.Err is off the hot path, frequent enough that a deadline
// stops the solver within milliseconds.
const ctxCheckPivots = 64

func newTableau(p *Problem) (*tableau, error) {
	m := len(p.cons)
	// Count extra columns: one slack or surplus per inequality, one
	// artificial per GE/EQ row (after sign normalization).
	type rowInfo struct {
		op  Op
		rhs float64
		neg bool
	}
	rows := make([]rowInfo, m)
	for i, c := range p.cons {
		rhs := c.rhs
		// Shift by structural lower bounds: b' = b - A l.
		for k, j := range c.idx {
			rhs -= c.val[k] * p.lower[j]
		}
		op := c.op
		neg := false
		if rhs < 0 {
			rhs = -rhs
			neg = true
			switch op {
			case LE:
				op = GE
			case GE:
				op = LE
			}
		}
		rows[i] = rowInfo{op: op, rhs: rhs, neg: neg}
	}
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
		if r.op != LE {
			nArt++
		}
	}
	nStruct := p.nvars
	n := nStruct + nSlack + nArt
	t := &tableau{
		p:       p,
		m:       m,
		n:       n,
		nStruct: nStruct,
		artFrom: nStruct + nSlack,
		a:       make([]float64, m*n),
		beta:    make([]float64, m),
		z:       make([]float64, n),
		ub:      make([]float64, n),
		basis:   make([]int, m),
		inRow:   make([]int, n),
		atUp:    make([]bool, n),
		frozen:  make([]bool, n),
	}
	for j := 0; j < nStruct; j++ {
		t.ub[j] = p.upper[j] - p.lower[j]
	}
	for j := nStruct; j < n; j++ {
		t.ub[j] = math.Inf(1)
	}
	for j := range t.inRow {
		t.inRow[j] = -1
	}
	slack := nStruct
	art := t.artFrom
	for i, c := range p.cons {
		r := rows[i]
		row := t.a[i*n : (i+1)*n]
		sign := 1.0
		if r.neg {
			sign = -1.0
		}
		for k, j := range c.idx {
			row[j] += sign * c.val[k]
		}
		t.beta[i] = r.rhs
		switch r.op {
		case LE:
			row[slack] = 1
			t.basis[i] = slack
			t.inRow[slack] = i
			slack++
		case GE:
			row[slack] = -1
			slack++
			row[art] = 1
			t.basis[i] = art
			t.inRow[art] = i
			art++
		case EQ:
			row[art] = 1
			t.basis[i] = art
			t.inRow[art] = i
			art++
		}
	}
	return t, nil
}

// setCosts installs reduced costs for the given raw cost vector (length n)
// relative to the current basis: z_j = c_j - c_B' B^-1 A_j.
func (t *tableau) setCosts(c []float64) {
	copy(t.z, c)
	for i := 0; i < t.m; i++ {
		cb := c[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i*t.n : (i+1)*t.n]
		for j := 0; j < t.n; j++ {
			t.z[j] -= cb * row[j]
		}
	}
}

func (t *tableau) solve() error {
	// Phase 1: minimize the sum of artificial variables.
	if t.artFrom < t.n {
		c1 := make([]float64, t.n)
		for j := t.artFrom; j < t.n; j++ {
			c1[j] = 1
		}
		t.setCosts(c1)
		if err := t.iterate(); err != nil {
			return err
		}
		var obj1 float64
		for i := 0; i < t.m; i++ {
			if t.basis[i] >= t.artFrom {
				obj1 += t.beta[i]
			}
		}
		if obj1 > feasTol {
			return ErrInfeasible
		}
		// Bar artificials from ever re-entering and pin them to 0.
		for j := t.artFrom; j < t.n; j++ {
			t.frozen[j] = true
			t.ub[j] = 0
		}
	}
	// Phase 2: the real objective (negated for maximization).
	c2 := make([]float64, t.n)
	sign := 1.0
	if t.p.sense == Maximize {
		sign = -1.0
	}
	for j := 0; j < t.nStruct; j++ {
		c2[j] = sign * t.p.obj[j]
	}
	t.setCosts(c2)
	t.degenerate = 0
	return t.iterate()
}

// iterate runs simplex pivots until optimality for the current cost row.
func (t *tableau) iterate() error {
	maxPivots := 200*(t.m+t.n) + 20000
	for t.pivots < maxPivots {
		if t.ctx != nil && t.pivots%ctxCheckPivots == 0 {
			if err := t.ctx.Err(); err != nil {
				return fmt.Errorf("lp: canceled after %d pivots: %w", t.pivots, err)
			}
		}
		bland := t.degenerate >= degenRun
		e := t.chooseEntering(bland)
		if e < 0 {
			return nil // optimal
		}
		if err := t.pivot(e, bland); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// chooseEntering returns an improving nonbasic column, or -1 at optimality.
// Under Bland's rule the lowest-index eligible column is chosen; otherwise
// the most negative (Dantzig) reduced-cost violation wins.
func (t *tableau) chooseEntering(bland bool) int {
	best := -1
	bestScore := costTol
	for j := 0; j < t.n; j++ {
		if t.inRow[j] >= 0 || t.frozen[j] || t.ub[j] == 0 {
			continue
		}
		var score float64
		if !t.atUp[j] {
			score = -t.z[j] // increasing x_j improves if z_j < 0
		} else {
			score = t.z[j] // decreasing x_j improves if z_j > 0
		}
		if score > bestScore {
			if bland {
				return j
			}
			best = j
			bestScore = score
		}
	}
	return best
}

// pivot moves the entering column e as far as the ratio test allows,
// flipping its bound or exchanging it with a leaving basic variable.
func (t *tableau) pivot(e int, bland bool) error {
	n := t.n
	// sigma = +1 when the entering variable increases from its lower
	// bound, -1 when it decreases from its upper bound.
	sigma := 1.0
	if t.atUp[e] {
		sigma = -1.0
	}
	tMax := t.ub[e] // bound-flip limit (possibly +Inf)
	leave := -1     // row index of leaving variable
	leaveAtUpper := false
	for i := 0; i < t.m; i++ {
		d := t.a[i*n+e]
		delta := -sigma * d // change of basic value per unit step
		var lim float64
		var hitsUpper bool
		switch {
		case delta < -pivotTol:
			// Basic variable decreases toward its lower bound 0.
			lim = t.beta[i] / -delta
		case delta > pivotTol:
			// Basic variable increases toward its upper bound.
			u := t.ub[t.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			lim = (u - t.beta[i]) / delta
			hitsUpper = true
		default:
			continue
		}
		if lim < 0 {
			lim = 0 // clamp tiny negative values from roundoff
		}
		switch {
		case lim < tMax-ratioTol:
			tMax, leave, leaveAtUpper = lim, i, hitsUpper
		case lim <= tMax+ratioTol && leave >= 0 && t.tieBreak(bland, i, leave, e):
			leave, leaveAtUpper = i, hitsUpper
			if lim < tMax {
				tMax = lim
			}
		}
	}
	if math.IsInf(tMax, 1) {
		return ErrUnbounded
	}
	if tMax < 0 {
		tMax = 0
	}
	t.pivots++
	if tMax <= pivotTol {
		t.degenerate++
	} else {
		t.degenerate = 0
	}
	// Move all basic values along the direction.
	if tMax > 0 {
		for i := 0; i < t.m; i++ {
			d := t.a[i*n+e]
			t.beta[i] += -sigma * d * tMax
		}
	}
	if leave < 0 {
		// Pure bound flip of the entering variable.
		t.atUp[e] = !t.atUp[e]
		return nil
	}
	// Exchange: entering becomes basic in row `leave`.
	enterVal := tMax
	if t.atUp[e] {
		enterVal = t.ub[e] - tMax
	}
	lv := t.basis[leave]
	t.inRow[lv] = -1
	t.atUp[lv] = leaveAtUpper
	t.basis[leave] = e
	t.inRow[e] = leave
	t.atUp[e] = false
	t.beta[leave] = enterVal

	// Gaussian elimination on the tableau matrix and the cost row.
	row := t.a[leave*n : (leave+1)*n]
	piv := row[e]
	inv := 1 / piv
	for j := 0; j < n; j++ {
		row[j] *= inv
	}
	row[e] = 1
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		other := t.a[i*n : (i+1)*n]
		f := other[e]
		if f == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			other[j] -= f * row[j]
		}
		other[e] = 0
	}
	f := t.z[e]
	if f != 0 {
		for j := 0; j < n; j++ {
			t.z[j] -= f * row[j]
		}
		t.z[e] = 0
	}
	return nil
}

// tieBreak decides whether candidate row i should replace the current
// leaving row cur under a tied ratio test for entering column e: Bland's
// rule picks the smaller basis index; otherwise the larger pivot magnitude
// wins for numerical stability.
func (t *tableau) tieBreak(bland bool, i, cur, e int) bool {
	if bland {
		return t.basis[i] < t.basis[cur]
	}
	return math.Abs(t.a[i*t.n+e]) > math.Abs(t.a[cur*t.n+e])
}

// extract recovers the structural solution in original (unshifted)
// coordinates.
func (t *tableau) extract() []float64 {
	x := make([]float64, t.nStruct)
	for j := 0; j < t.nStruct; j++ {
		var v float64
		if r := t.inRow[j]; r >= 0 {
			v = t.beta[r]
		} else if t.atUp[j] {
			v = t.ub[j]
		}
		x[j] = v + t.p.lower[j]
	}
	return x
}
