package lp

import (
	"context"
	"errors"
	"math"
)

// SolverStats counts what a reusable Solver actually did, so callers (and
// the differential suite) can verify that warm starts happen instead of
// silently degrading to cold solves, and diagnose pricing-rule regressions
// without a profiler.
type SolverStats struct {
	// Solves is the total number of Solve calls.
	Solves int
	// WarmHits counts solves completed from the retained basis.
	WarmHits int
	// ColdSolves counts solves that (re)built all state from scratch,
	// including the cold halves of abandoned warm attempts.
	ColdSolves int
	// Fallbacks counts warm-start attempts abandoned for a cold solve
	// (structural value outside the frozen sparsity pattern, a basis
	// left primal infeasible, numerical failure, or any pivot-loop error).
	Fallbacks int
	// DenseFallbacks counts cold solves that fell through to the dense
	// tableau oracle after a sparse numerical failure.
	DenseFallbacks int

	// Cumulative per-solve iteration counters (see Solution for the
	// per-solve meanings).
	PrimalPivots int64
	BoundFlips   int64
	Refactors    int64
	EtaUpdates   int64
	EtaNNZ       int64
}

// AvgEtaNNZ is the average off-pivot nonzero count of the product-form
// basis updates, the density the work-triggered refactorization budgets
// against. Zero when no updates were appended.
func (s SolverStats) AvgEtaNNZ() float64 {
	if s.EtaUpdates == 0 {
		return 0
	}
	return float64(s.EtaNNZ) / float64(s.EtaUpdates)
}

// errWarmFallback tags an abandoned warm-start attempt; the Solver catches
// it (and every other warm-path error) and re-solves cold, so it never
// escapes the package.
var errWarmFallback = errors.New("lp: warm start abandoned")

// Solver is a reusable handle over the sparse revised simplex. A one-shot
// Problem.Solve rebuilds the standardized form, factorizes the
// slack/artificial basis, and runs phase 1 before every solve; a Solver
// instead retains the previous solve's optimal basis, LU/eta factorization,
// and pricing state, and warm-starts the next solve when the problem is
// structurally unchanged — the workhorse loops (alternating optimization,
// the hourly online controller, experiment sweeps) solve long sequences of
// such problems.
//
// Warm-start policy: a solve is warm when the new problem has the same
// skeleton as the retained one (same variable count and, row by row, the
// same operator and index pattern — objective, bounds, right-hand sides,
// and coefficient values are free to move). The standardized form is then
// updated in place — replaying the problem's data-mutation log when the
// handle solved this exact Problem before (O(changes)), or rescanning the
// skeleton otherwise — and the solve walks a decision ladder:
//
//  1. retained basis still primal feasible and confirmed optimal by the
//     previous solve, with reduced costs the mutations left valid: no
//     pricing sweep at all;
//  2. retained basis still primal feasible: primal iterations from the
//     retained basis, factorization, and reduced costs;
//  3. otherwise: cold solve (phase 1 + phase 2 from scratch);
//  4. sparse numerical failure anywhere: dense tableau oracle.
//
// Any failure along the way abandons the attempt one rung down, so a
// Solver's verdict and objective always match a fresh Problem.Solve
// to within the solver tolerances (the differential suite pins this at
// 1e-9). Solutions may differ across warm and cold paths only as alternate
// optima. Infeasibility is only ever declared by the cold phase-1 path,
// whose verdict is the one differential-tested against the dense oracle.
//
// A Solver is not safe for concurrent use. Never share one across parallel
// workers (e.g. Monte-Carlo samples): per-sequence handles keep `-workers N`
// runs bit-for-bit identical (see DESIGN.md §3.8-§3.9).
//
// A nil *Solver is valid and solves one-shot, so callers can thread an
// optional handle without branching.
type Solver struct {
	r         *revised
	prob      *Problem
	structGen int
	hasBasis  bool
	stats     SolverStats

	// Position in prob's data-mutation log after the last successful
	// solve; valid while logEpoch matches prob.mutEpoch.
	logEpoch int
	logPos   int

	// Reused scratch of the incremental warm update.
	patchCols []int
	rhsRows   []int
	rhsDeltas []float64

	// deltaSolves counts consecutive warm solves whose beta was advanced
	// by sparse RHS-delta FTRANs; a periodic full recompute sheds the
	// accumulated drift.
	deltaSolves int

	// forceWarmNumericFailure, when true, makes the next warm-start
	// attempt treat its basis refactorization as numerically singular
	// (the errNumeric condition), exercising the cold-fallback path on
	// demand. Set only by tests; the attempt that consumes it resets it.
	forceWarmNumericFailure bool
}

// warmChange summarizes what a warm update actually changed, which decides
// how much retained state survives.
type warmChange struct {
	ok        bool // false: data no longer fits the frozen skeleton
	full      bool // full rescan ran (foreign pointer or log overflow)
	valsBasic bool // a basic column's matrix value moved: refactorize
	bounds    bool // some bound moved: recompute beta, re-check strands
	costsFull bool // sense flip or basic-column objective change
}

// NewSolver returns an empty handle; its first solve is necessarily cold.
func NewSolver() *Solver { return &Solver{} }

// Stats returns the cumulative counters. Nil-safe (zero stats).
func (s *Solver) Stats() SolverStats {
	if s == nil {
		return SolverStats{}
	}
	return s.stats
}

// Invalidate drops the retained basis and problem reference, forcing the
// next solve to run cold. Nil-safe.
func (s *Solver) Invalidate() {
	if s == nil {
		return
	}
	s.hasBasis = false
	s.r = nil
	s.prob = nil
}

// Solve solves p, warm-starting from the retained basis when the problem
// is structurally unchanged since the previous successful solve (see the
// type comment for the policy). A nil receiver solves one-shot, identical
// to p.Solve(ctx). A done ctx aborts the solve with an error wrapping
// ctx.Err(); nil means no cancellation.
func (s *Solver) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if s == nil {
		return s.coldSolve(ctx, p)
	}
	s.stats.Solves++
	if s.hasBasis && s.matches(p) {
		sol, err := s.warmSolve(ctx, p)
		if err == nil {
			s.stats.WarmHits++
			s.noteSolution(sol)
			s.retain(p)
			return sol, nil
		}
		// Every warm-path failure — structural slot mismatch, numerics,
		// a basis left primal infeasible, or a pivot-loop error
		// (including context cancellation, whose partial pivots
		// invalidated the state) — falls back to an authoritative cold
		// solve.
		s.stats.Fallbacks++
	}
	return s.coldSolve(ctx, p)
}

// retain records p as the problem behind the retained basis, including the
// mutation-log position future warm solves replay from.
func (s *Solver) retain(p *Problem) {
	s.prob = p
	s.structGen = p.structGen
	s.logEpoch = p.mutEpoch
	s.logPos = len(p.mut)
}

// noteSolution folds a successful solve's per-solve counters into the
// cumulative stats.
func (s *Solver) noteSolution(sol *Solution) {
	s.stats.PrimalPivots += int64(sol.PrimalPivots)
	s.stats.BoundFlips += int64(sol.BoundFlips)
	s.stats.Refactors += int64(sol.Refactors)
	s.stats.EtaUpdates += int64(sol.EtaUpdates)
	s.stats.EtaNNZ += int64(sol.EtaNNZ)
}

// matches reports whether p has the same structural skeleton as the problem
// behind the retained basis. The retained reference is trusted only while
// its own structGen is unchanged (its owner may have added constraints
// since); p then matches either by identity or by a row-by-row comparison
// of operators and index patterns (values, bounds, objective, and
// right-hand sides are data and free to differ).
func (s *Solver) matches(p *Problem) bool {
	old := s.prob
	if old == nil || old.structGen != s.structGen {
		return false
	}
	if old == p {
		return true
	}
	if old.nvars != p.nvars || len(old.cons) != len(p.cons) {
		return false
	}
	for i := range p.cons {
		a, b := &old.cons[i], &p.cons[i]
		if a.op != b.op || len(a.idx) != len(b.idx) {
			return false
		}
		for k := range a.idx {
			if a.idx[k] != b.idx[k] {
				return false
			}
		}
	}
	return true
}

// applyMuts replays the tail of p's data-mutation log against the retained
// standardized form, cost vector, and reduced costs, recording row deltas
// and columns to reprice as it goes. It is the O(changes) alternative to
// updateFrom's full rescan, valid because p is the identical Problem the
// form was last synchronized with.
func (s *Solver) applyMuts(p *Problem, muts []mutation) (ch warmChange) {
	r := s.r
	ch.ok = true
	sign := 1.0
	if p.sense == Maximize {
		sign = -1.0
	}
	for _, m := range muts {
		switch m.kind {
		case mutRHS:
			i := int(m.i)
			if d := r.f.refreshRHS(p, i); d != 0 {
				s.rhsRows = append(s.rhsRows, i)
				s.rhsDeltas = append(s.rhsDeltas, d)
			}
		case mutObj:
			j := int(m.j)
			r.c[j] = sign * p.obj[j]
			if r.inRow[j] >= 0 {
				ch.costsFull = true // basic cost moved: every dual moves
			} else {
				s.patchCols = append(s.patchCols, j)
			}
		case mutSense:
			sign = 1.0
			if p.sense == Maximize {
				sign = -1.0
			}
			ch.costsFull = true
		case mutBounds:
			r.f.refreshColBound(p, int(m.j))
			ch.bounds = true
		case mutCoeff:
			i, j := int(m.i), int(m.j)
			ok, changed := r.f.refreshCoeff(p, i, j)
			if !ok {
				ch.ok = false
				return ch
			}
			if d := r.f.refreshRHS(p, i); d != 0 {
				s.rhsRows = append(s.rhsRows, i)
				s.rhsDeltas = append(s.rhsDeltas, d)
			}
			if changed {
				if r.inRow[j] >= 0 {
					ch.valsBasic = true
				} else {
					s.patchCols = append(s.patchCols, j)
					if r.atUp[j] && r.f.ub[j] > 0 {
						// A nonbasic-at-upper column contributes A_j u_j
						// to the basic values; its changed column forces
						// a beta recomputation.
						ch.bounds = true
					}
				}
			}
		}
	}
	return ch
}

// warmSolve attempts to re-solve p from the retained optimal basis, walking
// the decision ladder of the type comment. Any returned error means the
// caller must fall back to a cold solve; the retained state may then be
// arbitrarily clobbered, which is fine because coldSolve rebuilds it from
// scratch.
func (s *Solver) warmSolve(ctx context.Context, p *Problem) (*Solution, error) {
	r := s.r
	r.statsMark()
	s.patchCols = s.patchCols[:0]
	s.rhsRows = s.rhsRows[:0]
	s.rhsDeltas = s.rhsDeltas[:0]
	var ch warmChange
	if p == s.prob && p.mutEpoch == s.logEpoch && s.logPos <= len(p.mut) {
		ch = s.applyMuts(p, p.mut[s.logPos:])
	} else {
		ok, changed := r.f.updateFrom(p)
		ch = warmChange{ok: ok, full: true, valsBasic: changed}
	}
	if !ch.ok {
		return nil, errWarmFallback
	}
	r.p = p
	r.ctx = ctx
	// Rung 0: refresh the factorization and the basic values, as cheaply
	// as the change set allows.
	if ch.valsBasic || s.forceWarmNumericFailure {
		ferr := r.b.refactor(r.f, r.basis)
		if s.forceWarmNumericFailure {
			s.forceWarmNumericFailure = false
			ferr = errNumeric
		}
		if ferr != nil {
			return nil, ferr
		}
	}
	if ch.full || ch.bounds {
		// A bound change can strand a nonbasic variable at an upper bound
		// that no longer exists (grew to +Inf) or collapsed onto the lower
		// bound; those rest at their lower bound instead.
		for j := 0; j < r.f.nStruct; j++ {
			if r.atUp[j] && r.inRow[j] < 0 && (math.IsInf(r.f.ub[j], 1) || r.f.ub[j] == 0) {
				r.atUp[j] = false
			}
		}
	}
	switch {
	case ch.valsBasic || ch.full || ch.bounds:
		r.recomputeBeta()
		s.deltaSolves = 0
	case len(s.rhsRows) > 0:
		// RHS-only movement: advance beta by one FTRAN of the deltas.
		// Every deltaRecompute-th consecutive delta-advanced solve takes
		// the full recomputation instead, shedding accumulated drift.
		s.deltaSolves++
		if s.deltaSolves >= deltaRecompute {
			r.recomputeBeta()
			s.deltaSolves = 0
		} else {
			r.applyRHSDeltas(s.rhsRows, s.rhsDeltas)
		}
	}
	// Only a retained basis that is still primal feasible warm-starts;
	// anything else re-solves cold.
	if !r.primalFeasible() {
		return nil, errWarmFallback
	}
	// Refresh costs and reduced costs to match. confirmed tracks whether
	// the refreshed z is known dual feasible without a pricing sweep: the
	// previous solve confirmed optimality on fresh reduced costs, and the
	// mutations either left z untouched (RHS-only movement) or repriced
	// exactly the patched columns against the still-valid duals. Bound
	// edits void the shortcut — they can flip atUp flags and with them the
	// attractiveness test on columns nobody repriced.
	confirmed := r.zOK && !ch.full && !ch.bounds
	switch {
	case ch.full || ch.costsFull:
		r.setPhase2Costs()
		r.computeZ()
		confirmed = false
	case ch.valsBasic:
		r.computeZ()
		confirmed = false
	case len(s.patchCols) > 0:
		if !r.zOK {
			r.computeZ() // retained duals unexpectedly stale: reprice everything
		} else if !r.patchZ(s.patchCols) {
			confirmed = false
		}
	}
	r.degenerate = 0
	// A confirmed-optimal basis skips the pricing sweep entirely: iterate()
	// would rescan all n columns only to find the same unattractive reduced
	// costs the shortcut already vouches for.
	if !confirmed {
		if ierr := r.iterate(); ierr != nil {
			return nil, ierr
		}
	}
	x := r.extract()
	sol := &Solution{X: x, Objective: p.Value(x), Pivots: r.pivots}
	r.fillCounters(sol)
	return sol, nil
}

// deltaRecompute bounds how many consecutive warm solves may advance beta
// by sparse delta FTRANs before a full recomputation sheds the drift.
const deltaRecompute = 64

// primalFeasible reports whether every basic value is inside its box
// (within feasTol) and finite.
func (r *revised) primalFeasible() bool {
	for i := 0; i < r.f.m; i++ {
		v := r.beta[i]
		u := r.f.ub[r.basis[i]]
		if math.IsNaN(v) || v < -feasTol || v > u+feasTol {
			return false
		}
	}
	return true
}

// coldSolve is the one cold-solve body behind both entries: phase 1 and
// phase 2 of the sparse revised simplex from scratch, falling through to
// the dense tableau oracle on a sparse numerical failure. A non-nil
// receiver counts the solve and retains the working state for the next
// warm start on success; a nil receiver is the one-shot Problem.Solve.
func (s *Solver) coldSolve(ctx context.Context, p *Problem) (*Solution, error) {
	if s != nil {
		s.stats.ColdSolves++
		s.hasBasis = false
		s.r = nil
		s.prob = nil
	}
	r := newRevised(p)
	r.ctx = ctx
	if err := r.solve(); err != nil {
		if !errors.Is(err, errNumeric) {
			return nil, err
		}
		if s != nil {
			s.stats.DenseFallbacks++
		}
		return p.SolveDense(ctx)
	}
	x := r.extract()
	sol := &Solution{X: x, Objective: p.Value(x), Pivots: r.pivots}
	r.fillCounters(sol)
	if s == nil {
		return sol, nil
	}
	s.r = r
	s.hasBasis = true
	s.retain(p)
	s.noteSolution(sol)
	return sol, nil
}
