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

	// Cumulative per-solve iteration counters (see Solution for the
	// per-solve meanings).
	PrimalPivots int64
	BoundFlips   int64
	Refactors    int64
	EtaUpdates   int64
	EtaNNZ       int64
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
// rewritten in place by one rescan of the problem's data, whether the
// caller rebuilt the Problem or edited the solved one, and the solve walks
// a two-rung ladder:
//
//  1. primal warm: the retained basis, refactorized if a matrix value
//     moved, is still primal feasible; primal iterations run from it on
//     freshly computed basic values and reduced costs;
//  2. cold: phase 1 + phase 2 from scratch.
//
// Any warm failure abandons the attempt for the cold rung, so a Solver's
// verdict and objective always match a fresh Problem.Solve to within the
// solver tolerances (the differential suite pins this at 1e-9). Solutions
// may differ across warm and cold paths only as alternate optima.
// Infeasibility is only ever declared by the cold phase-1 path, whose
// verdict is the one differential-tested against the dense tableau oracle
// of the tests. A cold solve's error, numerical failure included, is the
// solve's error.
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

// Solve solves p, warm-starting from the retained basis when the problem
// is structurally unchanged since the previous successful solve (see the
// type comment for the policy). A nil receiver solves one-shot, identical
// to p.Solve(ctx). A done ctx aborts the solve with an error wrapping
// ctx.Err(); nil means no cancellation.
func (s *Solver) Solve(ctx context.Context, p *Problem) (*Solution, error) {
	if ctx != nil {
		if observe, ok := ctx.Value(observerKey{}).(func(*Solver, *Problem)); ok {
			observe(s, p)
		}
	}
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

// observerKey is the context key of a solve observer, a func(*Solver,
// *Problem) that every Solve call hands its handle (nil for one-shot) and
// problem before solving. The package's tests install one to replay the
// LPs other packages build through the pivot-trace oracle.
type observerKey struct{}

// retain records p as the problem behind the retained basis.
func (s *Solver) retain(p *Problem) {
	s.prob = p
	s.structGen = p.structGen
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

// warmSolve attempts to re-solve p from the retained optimal basis (the
// first rung of the type comment's ladder). Any returned error means the
// caller must fall back to a cold solve; the retained state may then be
// arbitrarily clobbered, which is fine because coldSolve rebuilds it from
// scratch.
func (s *Solver) warmSolve(ctx context.Context, p *Problem) (*Solution, error) {
	r := s.r
	r.statsMark()
	ok, changed := r.f.updateFrom(p)
	if !ok {
		return nil, errWarmFallback
	}
	r.p = p
	r.ctx = ctx
	if changed {
		if err := r.b.refactor(r.f, r.basis); err != nil {
			return nil, err
		}
	}
	// A bound change can strand a nonbasic variable at an upper bound that
	// no longer exists (grew to +Inf) or collapsed onto the lower bound;
	// those rest at their lower bound instead.
	for j := 0; j < r.f.nStruct; j++ {
		if r.atUp[j] && r.inRow[j] < 0 && (math.IsInf(r.f.ub[j], 1) || r.f.ub[j] == 0) {
			r.atUp[j] = false
		}
	}
	r.recomputeBeta()
	// Only a retained basis that is still primal feasible warm-starts;
	// anything else re-solves cold.
	if !r.primalFeasible() {
		return nil, errWarmFallback
	}
	r.setPhase2Costs()
	r.computeZ()
	r.degenerate = 0
	if err := r.iterate(); err != nil {
		return nil, err
	}
	x := r.extract()
	sol := &Solution{X: x, Objective: p.Value(x), Pivots: r.pivots}
	r.fillCounters(sol)
	return sol, nil
}

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
// phase 2 of the sparse revised simplex from scratch. A non-nil receiver
// counts the solve and retains the working state for the next warm start
// on success; a nil receiver is the one-shot Problem.Solve.
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
		return nil, err
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
