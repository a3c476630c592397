package lp

import (
	"context"
	"fmt"
	"math"
)

// revised is the sparse revised-simplex working state. It solves the same
// standardized bounded-variable problem as the dense tableau (see stdForm)
// but keeps the basis as an LU/eta factorization instead of an explicit
// B^-1 A matrix. Pricing is devex with partial (sectioned) scanning over an
// incrementally maintained reduced-cost vector z: an exchange updates z and
// the devex reference weights from the pivot row (one BTRAN plus sparse
// column dot products), so choosing the next entering column is a cheap
// scan rather than a full pricing pass. Optimality is never declared from
// the incremental z alone — the loop recomputes z from the duals and
// rescans once before returning, so accumulated drift cannot terminate a
// solve early. Bland's rule (full scan over fresh z, lowest index) remains
// the anti-cycling fallback after degenRun degenerate pivots. Verdicts and
// objectives agree with tableau.go to the differential-suite tolerances.
type revised struct {
	p *Problem
	f *stdForm
	b *basisLU

	beta   []float64 // values of basic variables, len m
	basis  []int     // basis[i] = column basic at position/row i
	inRow  []int     // inRow[j] = basis position of column j, or -1
	atUp   []bool    // nonbasic-at-upper-bound flags
	frozen []bool    // columns barred from entering
	c      []float64 // current phase cost vector, len n
	y      []float64 // dual workspace (BTRAN result), len m
	d      []float64 // pivot direction workspace (FTRAN result), len m

	z   []float64 // reduced costs, incrementally maintained, len n
	w   []float64 // devex reference weights, len n
	rho []float64 // pivot-row BTRAN workspace, len m

	// Sparse pivot-row gather state (priceRow): alpha holds rho . A_j for
	// the columns named by alphaTouched; alphaStamp/alphaEpoch implement
	// O(touched) clearing between gathers. Allocated lazily by the first
	// priceRow call, alongside the stdForm row mirror: a solve that never
	// prices a pivot row pays for neither.
	alpha        []float64
	alphaStamp   []int64
	alphaTouched []int
	alphaEpoch   int64

	zOK      bool    // z was recomputed from the duals since the last exchange
	wMax     float64 // largest devex weight; resets the framework when huge
	scanFrom int     // partial-pricing cursor

	pivots       int
	primalPivots int
	boundFlips   int
	degenerate   int
	ctx          context.Context

	// Per-solve baselines of the basisLU's cumulative counters, set by
	// statsMark so fillCounters can report per-solve deltas.
	markRefactors int64
	markUpdates   int64
	markUpdateNNZ int64
}

// devexResetW restarts the devex reference framework once some weight
// outgrows it; past this the weights mostly measure their own history.
const devexResetW = 1e12

func newRevised(p *Problem) *revised {
	f := newStdForm(p)
	r := &revised{
		p:      p,
		f:      f,
		beta:   append([]float64(nil), f.rhs...),
		basis:  append([]int(nil), f.basis0...),
		inRow:  make([]int, f.n),
		atUp:   make([]bool, f.n),
		frozen: make([]bool, f.n),
		c:      make([]float64, f.n),
		y:      make([]float64, f.m),
		d:      make([]float64, f.m),
		z:      make([]float64, f.n),
		w:      make([]float64, f.n),
		rho:    make([]float64, f.m),
	}
	for j := range r.inRow {
		r.inRow[j] = -1
	}
	for i, j := range r.basis {
		r.inRow[j] = i
	}
	r.resetDevex()
	return r
}

// statsMark zeroes the per-solve iteration counters and snapshots the
// basisLU's cumulative ones, so fillCounters reports this solve only.
func (r *revised) statsMark() {
	r.pivots = 0
	r.primalPivots = 0
	r.boundFlips = 0
	r.degenerate = 0
	if r.b != nil {
		r.markRefactors = r.b.refactors
		r.markUpdates = r.b.updates
		r.markUpdateNNZ = r.b.updateNNZ
	} else {
		r.markRefactors, r.markUpdates, r.markUpdateNNZ = 0, 0, 0
	}
}

// fillCounters copies the per-solve pivot/refactor counters into sol.
func (r *revised) fillCounters(sol *Solution) {
	sol.PrimalPivots = r.primalPivots
	sol.BoundFlips = r.boundFlips
	if r.b != nil {
		sol.Refactors = int(r.b.refactors - r.markRefactors)
		sol.EtaUpdates = int(r.b.updates - r.markUpdates)
		sol.EtaNNZ = int(r.b.updateNNZ - r.markUpdateNNZ)
	}
}

func (r *revised) solve() error {
	if err := r.factorInitial(); err != nil {
		return err
	}
	return r.phases()
}

// factorInitial starts a cold solve: it resets the counters and factorizes
// the initial basis.
func (r *revised) factorInitial() error {
	r.statsMark()
	// The initial basis is slack/artificial columns, i.e. the identity, so
	// this factorization cannot fail.
	b, err := newBasisLU(r.f, r.basis)
	if err != nil {
		return err
	}
	r.b = b
	r.markRefactors = 0 // count the initial factorization for this solve
	return nil
}

// phases runs phase 1 and phase 2 of a cold solve from the factorized
// initial basis.
func (r *revised) phases() error {
	// Phase 1: minimize the sum of artificial variables.
	if r.f.artFrom < r.f.n {
		for j := r.f.artFrom; j < r.f.n; j++ {
			r.c[j] = 1
		}
		r.computeZ()
		if err := r.iterate(); err != nil {
			return err
		}
		var obj1 float64
		for i, j := range r.basis {
			if j >= r.f.artFrom {
				obj1 += r.beta[i]
			}
		}
		if obj1 > feasTol {
			return ErrInfeasible
		}
		// Bar artificials from ever re-entering and pin them to 0.
		for j := r.f.artFrom; j < r.f.n; j++ {
			r.frozen[j] = true
			r.f.ub[j] = 0
		}
		// Phase boundary: the factorization is current whenever the eta
		// file is empty (every exchange either appended an eta or already
		// refactorized), so the common case keeps the retained LU and only
		// refreshes beta; a non-empty file is folded down by one rebuild,
		// shedding the phase-1 etas before the real objective runs.
		if len(r.b.etas) == 0 {
			r.recomputeBeta()
		} else if err := r.refactor(); err != nil {
			return err
		}
	}
	// Phase 2: the real objective.
	r.setPhase2Costs()
	r.computeZ()
	r.resetDevex()
	r.degenerate = 0
	return r.iterate()
}

// setPhase2Costs loads the problem's real objective into the working cost
// vector (negated for maximization; extra columns cost zero).
func (r *revised) setPhase2Costs() {
	for j := range r.c {
		r.c[j] = 0
	}
	sign := 1.0
	if r.p.sense == Maximize {
		sign = -1.0
	}
	for j := 0; j < r.f.nStruct; j++ {
		r.c[j] = sign * r.p.obj[j]
	}
}

// resetDevex restarts the devex reference framework: every column becomes a
// reference column with weight 1.
func (r *revised) resetDevex() {
	for j := range r.w {
		r.w[j] = 1
	}
	r.wMax = 1
}

// computeZ recomputes the duals y = B^-T c_B and every nonbasic reduced
// cost z_j = c_j - y'A_j from scratch, clearing incremental drift.
//
//jcr:hotpath
func (r *revised) computeZ() {
	for i := 0; i < r.f.m; i++ {
		r.y[i] = r.c[r.basis[i]]
	}
	r.b.btran(r.y)
	for j := 0; j < r.f.n; j++ {
		if r.inRow[j] >= 0 {
			r.z[j] = 0
			continue
		}
		r.z[j] = r.c[j] - r.f.dotCol(j, r.y)
	}
	r.zOK = true
}

// patchZ recomputes the reduced costs of the given columns against the
// retained duals and reports whether every repriced column stayed
// unattractive. It serves warm restarts whose mutations touched nonbasic
// columns only (objective coefficient or matrix values): such edits leave
// the duals y = B^-T c_B untouched — the basis, its costs, and the
// factorization are all unchanged since the previous solve's
// optimality-confirming computeZ — so repricing is one sparse dot product
// per listed column, no BTRAN. The returned flag lets the caller skip the
// full pricing sweep: the unlisted entries of z are bit-for-bit the fresh
// reduced costs the previous confirm scan already cleared.
//
//jcr:hotpath
func (r *revised) patchZ(cols []int) (stillDual bool) {
	stillDual = true
	for _, j := range cols {
		if r.inRow[j] >= 0 {
			r.z[j] = 0
			continue
		}
		z := r.c[j] - r.f.dotCol(j, r.y)
		r.z[j] = z
		if r.frozen[j] || r.f.ub[j] == 0 {
			continue
		}
		if (!r.atUp[j] && -z > costTol) || (r.atUp[j] && z > costTol) {
			stillDual = false
		}
	}
	return stillDual
}

// iterate runs revised-simplex pivots until optimality for the current cost
// vector. The caller must have loaded a valid reduced-cost vector (computeZ
// or an incremental equivalent). Optimality is confirmed on a fresh z: if a
// scan over incrementally maintained reduced costs finds no entering
// column, z is recomputed from the duals and the scan repeated before
// declaring the basis optimal.
//
//jcr:hotpath
func (r *revised) iterate() error {
	maxPivots := r.pivotLimit()
	for r.pivots < maxPivots {
		if r.ctx != nil && r.pivots%ctxCheckPivots == 0 {
			if err := r.ctx.Err(); err != nil {
				//jcrlint:allow hot-alloc: cancellation exit path, formats at most once per solve
				return fmt.Errorf("lp: canceled after %d pivots: %w", r.pivots, err)
			}
		}
		bland := r.degenerate >= degenRun
		if bland && !r.zOK {
			r.computeZ()
		}
		e := r.chooseEntering(bland)
		if e < 0 {
			if r.zOK {
				return nil // optimal, confirmed on fresh reduced costs
			}
			r.computeZ()
			continue
		}
		if err := r.pivot(e, bland); err != nil {
			return err
		}
	}
	return ErrIterationLimit
}

// pivotLimit bounds total iterations per solve across both phases.
func (r *revised) pivotLimit() int { return 200*(r.f.m+r.f.n) + 20000 }

// priceRow gathers the pivot-row alphas alpha_j = rho . A_j for every
// column holding a nonzero in some row where rho is nonzero, walking the
// row-major mirror — O(nnz of the touched rows) against the dense sweep's
// O(nnz of the whole matrix). The returned list names the touched columns
// (every other column's alpha is an exact zero and owes no update); values
// land in r.alpha. Rows are visited in ascending order, so each alpha
// accumulates in exactly dotCol's term order and the gather is bit-for-bit
// interchangeable with the dense sweep it replaces.
//
// The gather's scattered writes cost roughly priceRowPenalty times the
// dense sweep's sequential reads per nonzero, so a dense pivot row — the
// late iterations of a cold solve on a compact instance — is cheaper to
// price the old way. priceRow pre-measures the touched work from the row
// pointers and reports dense=true (no gather performed) when the sweep
// wins; the caller falls back to dotCol over all columns.
//
//jcr:hotpath
func (r *revised) priceRow() (touched []int, dense bool) {
	f := r.f
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
		if r.rho[i] != 0 {
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
		ri := r.rho[i]
		if ri == 0 {
			continue
		}
		for s := f.rowPtr[i]; s < f.rowPtr[i+1]; s++ {
			j := f.rowCol[s]
			if r.alphaStamp[j] != ep {
				r.alphaStamp[j] = ep
				r.alpha[j] = 0
				//jcrlint:allow hot-alloc: alphaTouched is preallocated with cap n and holds each column at most once, so this append never grows the backing array
				touched = append(touched, j)
			}
			r.alpha[j] += f.values[f.rowPos[s]] * ri
		}
	}
	r.alphaTouched = touched
	return touched, false
}

// priceRowPenalty is the assumed cost ratio between the sparse gather's
// scattered stamp-checked writes and the dense sweep's sequential column
// dots, per matrix nonzero. Measured on the per-path and MMSFP-shaped
// workloads; the crossover is flat enough that a small integer serves.
const priceRowPenalty = 3

// chooseEntering scans the maintained reduced costs for an improving
// nonbasic column, or -1 at (tentative) optimality. The default rule is
// devex: among candidates in the current pricing section, the largest
// z_j^2 / w_j wins, where w_j is the column's devex reference weight. The
// scan is partial — sections of the column range are examined round-robin
// from a persistent cursor, stopping at the first section that yields any
// candidate — so an iteration prices a fraction of the columns in the
// common case. Under Bland's rule the lowest-index eligible column wins
// (full scan; the caller guarantees z is fresh).
//
//jcr:hotpath
func (r *revised) chooseEntering(bland bool) int {
	n := r.f.n
	if bland {
		for j := 0; j < n; j++ {
			if r.inRow[j] >= 0 || r.frozen[j] || r.f.ub[j] == 0 {
				continue
			}
			z := r.z[j]
			if (!r.atUp[j] && -z > costTol) || (r.atUp[j] && z > costTol) {
				return j
			}
		}
		return -1
	}
	if r.wMax > devexResetW {
		r.resetDevex()
	}
	// Section size trades pricing cost against pivot quality: tiny
	// sections pick myopically and inflate the pivot count, full scans
	// price every column every iteration. A 1024-column floor makes
	// small and mid-size instances (placement- and per-path-shaped LPs)
	// effectively fully priced while the largest instances still scan
	// n/8 at a time; both ends measured faster than 64/256/full-scan
	// alternatives on the benchjson suite.
	sec := n / 8
	if sec < 1024 {
		sec = 1024
	}
	best := -1
	bestScore := 0.0
	j := r.scanFrom
	if j >= n {
		j = 0
	}
	for scanned := 0; scanned < n; {
		secEnd := scanned + sec
		if secEnd > n {
			secEnd = n
		}
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
			var s float64
			if !r.atUp[col] {
				s = -z // increasing x_col improves if z_col < 0
			} else {
				s = z // decreasing x_col improves if z_col > 0
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

// pivot moves the entering column e as far as the ratio test allows,
// flipping its bound or exchanging it with a leaving basic variable. The
// direction d = B^-1 A_e plays the role the dense tableau column played.
//
//jcr:hotpath
func (r *revised) pivot(e int, bland bool) error {
	for i := range r.d {
		r.d[i] = 0
	}
	r.f.scatterCol(e, r.d)
	r.b.ftran(r.d)
	// sigma = +1 when the entering variable increases from its lower
	// bound, -1 when it decreases from its upper bound.
	sigma := 1.0
	if r.atUp[e] {
		sigma = -1.0
	}
	tMax := r.f.ub[e] // bound-flip limit (possibly +Inf)
	leave := -1
	leaveAtUpper := false
	for i := 0; i < r.f.m; i++ {
		delta := -sigma * r.d[i] // change of basic value per unit step
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
			lim = 0 // clamp tiny negative values from roundoff
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
			r.beta[i] += -sigma * r.d[i] * tMax
		}
	}
	if leave < 0 {
		// Pure bound flip of the entering variable: no basis change, so
		// the reduced costs and devex weights are untouched.
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
	// Maintain reduced costs and devex weights across the exchange while
	// the factorization still represents the pre-exchange basis, then fold
	// the exchange in (refactorizing if the update reports instability or
	// an over-budget eta file).
	r.updateDualsForExchange(e, lv, leave, r.d[leave])
	if r.b.update(leave, r.d) {
		return r.refactor()
	}
	return nil
}

// updateDualsForExchange maintains z and the devex weights across the basis
// exchange that put column e into basis row leave, evicting lv whose pivot
// alpha was ae. The pivot row alpha = e_leave' B^-1 A is priced against the
// pre-exchange basis (the caller has not yet folded the exchange into the
// factorization): z_j -= theta * alpha_j with theta = z_e / ae, which lands
// z_lv = -theta automatically since alpha_lv = 1, and the devex weights
// take the reference-framework update w_j = max(w_j, (alpha_j^2/ae^2) w_e).
//
//jcr:hotpath
func (r *revised) updateDualsForExchange(e, lv, leave int, ae float64) {
	for i := range r.rho {
		r.rho[i] = 0
	}
	r.rho[leave] = 1
	r.b.btran(r.rho)
	theta := r.z[e] / ae
	scale := r.w[e] / (ae * ae)
	if touched, dn := r.priceRow(); dn {
		for j := 0; j < r.f.n; j++ {
			if r.inRow[j] >= 0 {
				continue
			}
			a := r.f.dotCol(j, r.rho)
			if a == 0 {
				continue
			}
			r.z[j] -= theta * a
			if g := a * a * scale; g > r.w[j] {
				r.w[j] = g
				if g > r.wMax {
					r.wMax = g
				}
			}
		}
	} else {
		for _, j := range touched {
			if r.inRow[j] >= 0 {
				continue
			}
			a := r.alpha[j]
			if a == 0 {
				continue
			}
			r.z[j] -= theta * a
			if g := a * a * scale; g > r.w[j] {
				r.w[j] = g
				if g > r.wMax {
					r.wMax = g
				}
			}
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

// tieBreak decides whether candidate row i should replace the current
// leaving row cur under a tied ratio test: Bland's rule picks the smaller
// basis index; otherwise the larger pivot magnitude wins for stability.
func (r *revised) tieBreak(bland bool, i, cur int) bool {
	if bland {
		return r.basis[i] < r.basis[cur]
	}
	return math.Abs(r.d[i]) > math.Abs(r.d[cur])
}

// refactor rebuilds the LU from the current basis and recomputes beta,
// shedding drift the incremental updates accumulated.
func (r *revised) refactor() error {
	if err := r.b.refactor(r.f, r.basis); err != nil {
		return err
	}
	r.recomputeBeta()
	return nil
}

// recomputeBeta recomputes the basic values from the right-hand side,
// beta = B^-1 (b - sum over nonbasic-at-upper columns of A_j u_j). It is
// the second half of refactor, split out so a warm start whose matrix
// values did not change can refresh beta while keeping the retained LU.
func (r *revised) recomputeBeta() {
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
	r.b.ftran(r.beta)
}

// applyRHSDeltas folds right-hand-side changes into beta with a single
// FTRAN of the delta vector instead of a full recomputation: the new basic
// values are beta + B^-1 (delta rhs). rows/deltas pair row indices with the
// change of f.rhs on that row (repeats accumulate).
func (r *revised) applyRHSDeltas(rows []int, deltas []float64) {
	for i := range r.d {
		r.d[i] = 0
	}
	for k, i := range rows {
		r.d[i] += deltas[k]
	}
	r.b.ftran(r.d)
	for i := 0; i < r.f.m; i++ {
		r.beta[i] += r.d[i]
	}
}

// extract recovers the structural solution in original (unshifted)
// coordinates, mirroring tableau.extract.
func (r *revised) extract() []float64 {
	x := make([]float64, r.f.nStruct)
	for j := 0; j < r.f.nStruct; j++ {
		var v float64
		if i := r.inRow[j]; i >= 0 {
			v = r.beta[i]
		} else if r.atUp[j] {
			v = r.f.ub[j]
		}
		x[j] = v + r.p.lower[j]
	}
	return x
}
