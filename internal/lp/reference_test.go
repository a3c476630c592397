package lp

import (
	"fmt"
	"math"
)

// The dense reference kernels of the sparse revised simplex: every
// per-pivot pass sweeps all m rows or all n columns — the LU solves, the
// ratio test and beta update, the eta capture, the pivot-row scan and the
// sectioned pricing scan. The production kernels walk only the nonzeros a
// pivot touches and must make the same choices with the same bits; the
// pivot-trace oracle (trace_test.go) runs both on one problem and compares.

// refLUFtran solves L U x = P b over every position: on entry v holds b by
// constraint row, on exit x by basis position.
func refLUFtran(lu *luFactor, v, tmp []float64) {
	for i := 0; i < lu.m; i++ {
		tmp[lu.pinv[i]] = v[i]
	}
	for j := 0; j < lu.m; j++ { // L solve (unit diagonal)
		if xj := tmp[j]; xj != 0 {
			for p := lu.lcp[j]; p < lu.lcp[j+1]; p++ {
				tmp[lu.li[p]] -= lu.lx[p] * xj
			}
		}
	}
	for j := lu.m - 1; j >= 0; j-- { // U solve
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		xj /= lu.udiag[j]
		tmp[j] = xj
		for p := lu.ucp[j]; p < lu.ucp[j+1]; p++ {
			tmp[lu.ui[p]] -= lu.ux[p] * xj
		}
	}
	copy(v, tmp)
}

// refLUBtran is refLUFtran's transpose in scatter form over the row-major
// mirrors: v by basis position in, by constraint row out.
func refLUBtran(lu *luFactor, v, tmp []float64) {
	m := lu.m
	copy(tmp, v[:m])
	for j := 0; j < m; j++ { // U' solve, forward scatter
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		xj /= lu.udiag[j]
		tmp[j] = xj
		for p := lu.urp[j]; p < lu.urp[j+1]; p++ {
			tmp[lu.urc[p]] -= lu.urx[p] * xj
		}
	}
	for j := m - 1; j >= 0; j-- { // L' solve, backward scatter
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		for p := lu.lrp[j]; p < lu.lrp[j+1]; p++ {
			tmp[lu.lrc[p]] -= lu.lrx[p] * xj
		}
	}
	for i := 0; i < m; i++ {
		v[i] = tmp[lu.pinv[i]]
	}
}

// refFtran solves B v = b for the current basis: the LU, then the eta file
// oldest first. It leaves b.tmp dirty, which only the production kernels
// mind: a revised runs on one kernel set for its whole life.
func refFtran(b *basisLU, v []float64) {
	refLUFtran(b.lu, v, b.tmp)
	for t := range b.etas {
		e := &b.etas[t]
		xr := v[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.dr
		for p := e.from; p < e.to; p++ {
			v[b.etaIdx[p]] -= b.etaVal[p] * xr
		}
		v[e.r] = xr
	}
}

// refBtran solves B' y = c: the eta transposes newest first, then the LU.
func refBtran(b *basisLU, v []float64) {
	for t := len(b.etas) - 1; t >= 0; t-- {
		e := &b.etas[t]
		s := v[e.r]
		for p := e.from; p < e.to; p++ {
			s -= b.etaVal[p] * v[b.etaIdx[p]]
		}
		v[e.r] = s / e.dr
	}
	refLUBtran(b.lu, v, b.tmp)
}

// refUpdate is basisLU.update with the capture sweeping all of d.
func refUpdate(b *basisLU, r int, d []float64) bool {
	from := len(b.etaIdx)
	dmax := 0.0
	for i, v := range d {
		if v != 0 {
			if a := math.Abs(v); a > dmax {
				dmax = a
			}
			if i != r {
				b.etaIdx = append(b.etaIdx, i)
				b.etaVal = append(b.etaVal, v)
			}
		}
	}
	nnz := len(b.etaIdx) - from
	if math.Abs(d[r]) <= ftStabTol*dmax ||
		len(b.etas) >= maxEtas ||
		float64(b.fileNNZ+nnz) > etaWorkBudget*float64(b.luNNZ()) {
		b.etaIdx, b.etaVal = b.etaIdx[:from], b.etaVal[:from]
		return true
	}
	b.etas = append(b.etas, eta{r: r, dr: d[r], from: from, to: len(b.etaIdx)})
	b.fileNNZ += nnz
	b.updates++
	b.updateNNZ += int64(nnz)
	return false
}

// refResetDevex restarts the devex framework without touching the tree.
func (r *revised) refResetDevex() {
	for j := range r.w {
		r.w[j] = 1
	}
	r.wMax = 1
}

// refComputeZ recomputes the duals and reduced costs with refBtran.
func (r *revised) refComputeZ() {
	for i := 0; i < r.f.m; i++ {
		r.y[i] = r.c[r.basis[i]]
	}
	refBtran(r.b, r.y)
	for j := 0; j < r.f.n; j++ {
		if r.inRow[j] >= 0 {
			r.z[j] = 0
			continue
		}
		r.z[j] = r.c[j] - r.f.dotCol(j, r.y)
	}
	r.zOK = true
}

// refRecomputeBeta recomputes the basic values with refFtran.
func (r *revised) refRecomputeBeta() {
	for i := 0; i < r.f.m; i++ {
		r.beta[i] = r.f.rhs[i]
	}
	for j := 0; j < r.f.n; j++ {
		if r.atUp[j] && r.inRow[j] < 0 && r.f.ub[j] > 0 {
			for p := r.f.colPtr[j]; p < r.f.colPtr[j+1]; p++ {
				r.beta[r.f.rowInd[p]] -= r.f.values[p] * r.f.ub[j]
			}
		}
	}
	refFtran(r.b, r.beta)
}

func (r *revised) refRefactor() error {
	if err := r.b.refactor(r.f, r.basis); err != nil {
		return err
	}
	r.refRecomputeBeta()
	return nil
}

// refChooseEntering is the linear sectioned devex scan: sections of
// max(n/8, 1024) columns round-robin from the cursor, the first section
// holding a candidate supplies the largest z_j^2/w_j, the first in scan
// order on ties. Bland's rule takes the lowest eligible index.
func (r *revised) refChooseEntering(bland bool) int {
	n := r.f.n
	if bland {
		return r.chooseEntering(true)
	}
	if r.wMax > devexResetW {
		r.refResetDevex()
	}
	sec := max(n/8, 1024)
	best := -1
	bestScore := 0.0
	j := r.scanFrom
	if j >= n {
		j = 0
	}
	for scanned := 0; scanned < n; {
		secEnd := min(scanned+sec, n)
		for ; scanned < secEnd; scanned++ {
			col := j
			j++
			if j == n {
				j = 0
			}
			if r.inRow[col] >= 0 || r.frozen[col] || r.f.ub[col] == 0 {
				continue
			}
			z := r.z[col]
			s := -z
			if r.atUp[col] {
				s = z
			}
			if s > costTol {
				if sc := s * s / r.w[col]; sc > bestScore {
					bestScore = sc
					best = col
				}
			}
		}
		if best >= 0 {
			break
		}
	}
	r.scanFrom = j
	return best
}

// refPivot is revised.pivot with the full-m ratio test and beta update over
// a dense direction.
func (r *revised) refPivot(e int, bland bool) error {
	d := r.d.x
	clear(d)
	for p := r.f.colPtr[e]; p < r.f.colPtr[e+1]; p++ {
		d[r.f.rowInd[p]] += r.f.values[p]
	}
	refFtran(r.b, d)
	sigma := 1.0
	if r.atUp[e] {
		sigma = -1.0
	}
	tMax := r.f.ub[e]
	leave := -1
	leaveAtUpper := false
	for i := 0; i < r.f.m; i++ {
		delta := -sigma * d[i]
		var lim float64
		var hitsUpper bool
		switch {
		case delta < -pivotTol:
			lim = r.beta[i] / -delta
		case delta > pivotTol:
			u := r.f.ub[r.basis[i]]
			if math.IsInf(u, 1) {
				continue
			}
			lim = (u - r.beta[i]) / delta
			hitsUpper = true
		default:
			continue
		}
		if lim < 0 {
			lim = 0
		}
		switch {
		case lim < tMax-ratioTol:
			tMax, leave, leaveAtUpper = lim, i, hitsUpper
		case lim <= tMax+ratioTol && leave >= 0 && r.tieBreak(bland, i, leave):
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
	r.pivots++
	if tMax <= pivotTol {
		r.degenerate++
	} else {
		r.degenerate = 0
	}
	if tMax > 0 {
		for i := 0; i < r.f.m; i++ {
			r.beta[i] += -sigma * d[i] * tMax
		}
	}
	if leave < 0 {
		r.atUp[e] = !r.atUp[e]
		r.boundFlips++
		return nil
	}
	enterVal := tMax
	if r.atUp[e] {
		enterVal = r.f.ub[e] - tMax
	}
	lv := r.basis[leave]
	r.inRow[lv] = -1
	r.atUp[lv] = leaveAtUpper
	r.basis[leave] = e
	r.inRow[e] = leave
	r.atUp[e] = false
	r.beta[leave] = enterVal
	r.primalPivots++
	r.refUpdateDuals(e, lv, leave, d[leave])
	if refUpdate(r.b, leave, d) {
		return r.refRefactor()
	}
	return nil
}

// refUpdateDuals is updateDualsForExchange with a dense pivot row: refBtran
// for rho and, for the gather, the scan of all m rows.
func (r *revised) refUpdateDuals(e, lv, leave int, ae float64) {
	rho := r.rho.x
	clear(rho)
	rho[leave] = 1
	refBtran(r.b, rho)
	theta := r.z[e] / ae
	scale := r.w[e] / (ae * ae)
	apply := func(j int, a float64) {
		if r.inRow[j] >= 0 || a == 0 {
			return
		}
		r.z[j] -= theta * a
		if g := a * a * scale; g > r.w[j] {
			r.w[j] = g
			if g > r.wMax {
				r.wMax = g
			}
		}
	}
	if touched, dn := r.refPriceRow(); dn {
		for j := 0; j < r.f.n; j++ {
			if r.inRow[j] < 0 {
				apply(j, r.f.dotCol(j, rho))
			}
		}
	} else {
		for _, j := range touched {
			apply(j, r.alpha[j])
		}
	}
	r.z[e] = 0
	if scale > 1 {
		r.w[lv] = scale
	} else {
		r.w[lv] = 1
	}
	r.zOK = false
}

// refPriceRow is priceRow scanning all m entries of rho for its rows.
func (r *revised) refPriceRow() (touched []int, dense bool) {
	f := r.f
	rho := r.rho.x
	if f.rowPtr == nil {
		f.buildRowMirror()
	}
	if r.alpha == nil {
		r.alpha = make([]float64, f.n)
		r.alphaStamp = make([]int64, f.n)
		r.alphaTouched = make([]int, 0, f.n)
	}
	work := 0
	for i := 0; i < f.m; i++ {
		if rho[i] != 0 {
			work += f.rowPtr[i+1] - f.rowPtr[i]
		}
	}
	if priceRowPenalty*work > len(f.rowInd) {
		return nil, true
	}
	r.alphaEpoch++
	ep := r.alphaEpoch
	touched = r.alphaTouched[:0]
	for i := 0; i < f.m; i++ {
		ri := rho[i]
		if ri == 0 {
			continue
		}
		for s := f.rowPtr[i]; s < f.rowPtr[i+1]; s++ {
			j := f.rowCol[s]
			if r.alphaStamp[j] != ep {
				r.alphaStamp[j] = ep
				r.alpha[j] = 0
				touched = append(touched, j)
			}
			r.alpha[j] += f.values[f.rowPos[s]] * ri
		}
	}
	r.alphaTouched = touched
	return touched, false
}

// pivotStep is one iteration of a traced solve: the entering column and
// the leaving basis position, -1 for a bound flip, or -2 for a pivot that
// failed (an unbounded ray).
type pivotStep struct {
	enter, leave int
	flip         bool
}

// tracedSolve drives one solve of the sparse revised simplex on either
// kernel set — the production kernels or the dense references above —
// through a copy of the phase and warm-start logic of revised.go and
// solver.go, recording every pivot.
type tracedSolve struct {
	ref   bool
	r     *revised
	steps []pivotStep
}

func (t *tracedSolve) computeZ() {
	if t.ref {
		t.r.refComputeZ()
	} else {
		t.r.computeZ()
	}
}

func (t *tracedSolve) resetDevex() {
	if t.ref {
		t.r.refResetDevex()
	} else {
		t.r.resetDevex()
	}
}

func (t *tracedSolve) recomputeBeta() {
	if t.ref {
		t.r.refRecomputeBeta()
	} else {
		t.r.recomputeBeta()
	}
}

func (t *tracedSolve) refactor() error {
	if t.ref {
		return t.r.refRefactor()
	}
	return t.r.refactor()
}

func (t *tracedSolve) iterate() error {
	r := t.r
	maxPivots := r.pivotLimit()
	for r.pivots < maxPivots {
		bland := r.degenerate >= degenRun
		if bland && !r.zOK {
			t.computeZ()
		}
		var e int
		if t.ref {
			e = r.refChooseEntering(bland)
		} else {
			e = r.chooseEntering(bland)
		}
		if e < 0 {
			if r.zOK {
				return nil
			}
			t.computeZ()
			continue
		}
		flips := r.boundFlips
		var err error
		if t.ref {
			err = r.refPivot(e, bland)
		} else {
			err = r.pivot(e, bland)
		}
		if err != nil {
			t.steps = append(t.steps, pivotStep{enter: e, leave: -2})
			return err
		}
		if r.boundFlips > flips {
			t.steps = append(t.steps, pivotStep{enter: e, leave: -1, flip: true})
		} else {
			t.steps = append(t.steps, pivotStep{enter: e, leave: r.inRow[e]})
		}
	}
	return ErrIterationLimit
}

// phases mirrors revised.phases.
func (t *tracedSolve) phases() error {
	r := t.r
	if r.f.artFrom < r.f.n {
		for j := r.f.artFrom; j < r.f.n; j++ {
			r.c[j] = 1
		}
		t.computeZ()
		if err := t.iterate(); err != nil {
			return err
		}
		var obj1 float64
		for i, j := range r.basis {
			if j >= r.f.artFrom {
				obj1 += r.beta[i]
			}
		}
		if obj1 > phase1Tol(r.f.rhs) {
			return ErrInfeasible
		}
		for j := r.f.artFrom; j < r.f.n; j++ {
			r.frozen[j] = true
			r.f.ub[j] = 0
		}
		if len(r.b.etas) == 0 {
			t.recomputeBeta()
		} else if err := t.refactor(); err != nil {
			return err
		}
	}
	r.setPhase2Costs()
	t.computeZ()
	t.resetDevex()
	r.degenerate = 0
	return t.iterate()
}

// tracedSolver mirrors Solver: a cold solve, then warm solves from the
// retained basis while the skeleton holds, falling back to cold.
type tracedSolver struct {
	ref  bool
	t    *tracedSolve
	sv   Solver // skeleton bookkeeping only (retain / matches)
	warm bool   // the last solve completed warm
}

// solve runs p and returns the solution (nil on error), the error and the
// pivot trace of the attempt that produced the result.
func (s *tracedSolver) solve(p *Problem) (*Solution, error, []pivotStep) {
	s.warm = false
	if s.sv.hasBasis && s.sv.matches(p) {
		sol, err := s.warmSolve(p)
		if err == nil {
			s.warm = true
			s.sv.retain(p)
			return sol, nil, s.t.steps
		}
	}
	s.sv.hasBasis = false
	t := &tracedSolve{ref: s.ref, r: newRevised(p)}
	s.t = t
	if err := t.r.factorInitial(); err != nil {
		return nil, err, t.steps
	}
	if err := t.phases(); err != nil {
		return nil, err, t.steps
	}
	s.sv.hasBasis = true
	s.sv.retain(p)
	return t.solution(p), nil, t.steps
}

// warmSolve mirrors Solver.warmSolve.
func (s *tracedSolver) warmSolve(p *Problem) (*Solution, error) {
	t := s.t
	t.steps = nil
	r := t.r
	r.statsMark()
	ok, changed := r.f.updateFrom(p)
	if !ok {
		return nil, errWarmFallback
	}
	r.p = p
	if changed {
		if err := r.b.refactor(r.f, r.basis); err != nil {
			return nil, err
		}
	}
	for j := 0; j < r.f.nStruct; j++ {
		if r.atUp[j] && r.inRow[j] < 0 && (math.IsInf(r.f.ub[j], 1) || r.f.ub[j] == 0) {
			r.atUp[j] = false
		}
	}
	t.recomputeBeta()
	if !r.primalFeasible() {
		return nil, errWarmFallback
	}
	r.setPhase2Costs()
	t.computeZ()
	r.degenerate = 0
	if err := t.iterate(); err != nil {
		return nil, err
	}
	return t.solution(p), nil
}

func (t *tracedSolve) solution(p *Problem) *Solution {
	x := t.r.extract()
	sol := &Solution{X: x, Objective: p.Value(x), Pivots: t.r.pivots}
	t.r.fillCounters(sol)
	return sol
}

// sameSolve reports how two solves of one problem differ: the verdict, the
// bits of X and of the objective, and the pivot, flip and refactor counts.
func sameSolve(a *Solution, aErr error, b *Solution, bErr error) error {
	if verdict(aErr) != verdict(bErr) {
		return fmt.Errorf("verdict %q vs %q", verdict(aErr), verdict(bErr))
	}
	if aErr != nil {
		return nil
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Errorf("objective %v vs %v", a.Objective, b.Objective)
	}
	for j := range a.X {
		if math.Float64bits(a.X[j]) != math.Float64bits(b.X[j]) {
			return fmt.Errorf("x_%d = %v vs %v", j, a.X[j], b.X[j])
		}
	}
	if a.Pivots != b.Pivots || a.PrimalPivots != b.PrimalPivots || a.BoundFlips != b.BoundFlips ||
		a.Refactors != b.Refactors || a.EtaUpdates != b.EtaUpdates || a.EtaNNZ != b.EtaNNZ {
		return fmt.Errorf("counters %+v vs %+v", counters(a), counters(b))
	}
	return nil
}

func counters(s *Solution) [6]int {
	return [6]int{s.Pivots, s.PrimalPivots, s.BoundFlips, s.Refactors, s.EtaUpdates, s.EtaNNZ}
}

// sameTrace reports the first pivot where two traces part.
func sameTrace(a, b []pivotStep) error {
	for k := 0; k < min(len(a), len(b)); k++ {
		if a[k] != b[k] {
			return fmt.Errorf("pivot %d: %+v vs %+v", k, a[k], b[k])
		}
	}
	if len(a) != len(b) {
		return fmt.Errorf("%d pivots vs %d", len(a), len(b))
	}
	return nil
}

// pivotTraceOracle solves a sequence of problems three ways — through a
// production Solver, and through traced solvers on the production and on
// the reference kernels — and requires, solve by solve, one pivot trace for
// both kernel sets and bit-identical results from all three. Problems that
// keep a skeleton warm-start, so the sequence exercises the state the
// retained revised must rebuild after updateFrom.
type pivotTraceOracle struct {
	prod, ref tracedSolver
	solver    *Solver
	solves    int
	warm      int
	pivots    int
}

func newPivotTraceOracle() *pivotTraceOracle {
	return &pivotTraceOracle{prod: tracedSolver{}, ref: tracedSolver{ref: true}, solver: NewSolver()}
}

// check solves p (in place edits of an earlier problem included) all three
// ways.
func (o *pivotTraceOracle) check(p *Problem) error {
	got, gotErr := o.solver.Solve(nil, p)
	pSol, pErr, pSteps := o.prod.solve(p)
	rSol, rErr, rSteps := o.ref.solve(p)
	o.solves++
	if o.prod.warm {
		o.warm++
	}
	o.pivots += len(rSteps)
	if o.prod.warm != o.ref.warm {
		return fmt.Errorf("solve %d: warm %v on production kernels, %v on reference", o.solves, o.prod.warm, o.ref.warm)
	}
	if err := sameTrace(pSteps, rSteps); err != nil {
		return fmt.Errorf("solve %d: traces part: %w", o.solves, err)
	}
	if err := sameSolve(pSol, pErr, rSol, rErr); err != nil {
		return fmt.Errorf("solve %d: production vs reference kernels: %w", o.solves, err)
	}
	if err := sameSolve(got, gotErr, pSol, pErr); err != nil {
		return fmt.Errorf("solve %d: Solver vs traced production kernels: %w", o.solves, err)
	}
	return nil
}
