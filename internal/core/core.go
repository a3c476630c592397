// Package core ties the substrates together into the paper's joint caching
// and routing optimization (Eq. 1): the three regimes (FC-FR, IC-FR,
// IC-IR), the exact FC-FR linear program, and the alternating optimization
// algorithm of Section 4.3.3 for general link and cache capacities.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"jcr/internal/lp"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/routing"
)

// Numerical tolerances. Every slack used by this package is named here so
// the package's numerics are auditable in one place (enforced by jcrlint
// tol-literal).
const (
	// improveTol is the relative cost margin below which an alternating
	// round does not count as an improvement; it also breaks
	// equal-cost ties on congestion.
	improveTol = 1e-9
	// serveTol is the relative slack allowed when checking that a
	// request is served at its full rate.
	serveTol = 1e-6
)

// Regime selects the integrality requirements of Eq. (1g)-(1h).
type Regime int

// The three regimes of Section 2.4 (FC-IR reduces to IC-IR and is omitted,
// as in the paper).
const (
	// FCFR: fractional caching and fractional routing; an LP.
	FCFR Regime = iota + 1
	// ICFR: integral caching, fractional routing; NP-hard.
	ICFR
	// ICIR: integral caching and integral routing; NP-hard, the paper's
	// evaluation focus.
	ICIR
)

func (r Regime) String() string {
	switch r {
	case FCFR:
		return "FC-FR"
	case ICFR:
		return "IC-FR"
	case ICIR:
		return "IC-IR"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Solution is a joint caching and routing solution.
type Solution struct {
	Placement *placement.Placement
	Routing   *routing.Result
	// Cost is the total routing cost (1a).
	Cost float64
	// MaxUtilization is the worst link load-to-capacity ratio; above 1
	// the solution exceeds some link capacity.
	MaxUtilization float64
	// Iterations counts alternating-optimization rounds actually run.
	Iterations int
}

// AlternatingOptions configure the Section 4.3.3 optimizer.
type AlternatingOptions struct {
	// MaxIters bounds the alternating rounds; the paper observes
	// convergence within 10 in all evaluated cases. Zero means 10.
	MaxIters int
	// Fractional selects IC-FR (MMSFP routing); default is IC-IR
	// (MMUFP via randomized rounding).
	Fractional bool
	// PlacementMethod picks the Section 4.3.1 subroutine variant.
	PlacementMethod placement.PerPathMethod
	// Routing carries the routing solver's knobs; its Fractional field
	// is overridden by the option above.
	Routing routing.Options
	// Initial optionally seeds the placement; nil starts from the
	// pinned-only placement (everything served by the origin), a
	// trivially feasible solution.
	Initial *placement.Placement
	// Rng drives randomized rounding. Nil builds a generator from Seed,
	// so runs are bit-reproducible either way; see DESIGN.md ("Seeding").
	Rng *rand.Rand
	// Seed seeds the rounding generator when Rng is nil; zero means
	// rng.DefaultSeed.
	Seed int64
	// Workers bounds the worker pool of both subproblem solvers (the
	// per-path saving enumeration and the independent min-cost flow fast
	// path). Zero or negative means GOMAXPROCS; the result is identical
	// for any worker count (see internal/par). A Workers set explicitly
	// on Routing takes precedence for the routing step.
	Workers int
	// State, when non-nil, carries solver state across rounds and across
	// repeated Alternating calls on the same instance: the per-path LP's
	// warm-start handle and the routing caches (see SolveState). Nil solves
	// every subproblem from scratch. A Routing.Reuse set explicitly takes
	// precedence for the routing step.
	State *SolveState
}

// SolveState bundles the reusable solver state of the alternating
// optimizer's two subproblems: the Eq. (15) per-path LP's warm-start handle
// and the routing layer's caches (demand sets, auxiliary graph, tree
// engine, decomposed cell LPs). The alternating loop re-solves structurally
// repeating problems every round — and the online controller re-runs the
// whole loop every hour — so carrying the state across calls turns most of
// those solves into warm starts. Correctness is unaffected: every layer
// validates its cache and rebuilds (or re-solves cold) on any mismatch.
//
// A SolveState is not safe for concurrent use; give parallel workers (e.g.
// Monte-Carlo samples) one handle each, never a shared one (DESIGN.md §3.9).
type SolveState struct {
	// PerPath warm-starts the per-path placement LP.
	PerPath *lp.Solver
	// Routing carries the routing-layer caches.
	Routing *routing.Reuse
}

// NewSolveState returns an empty handle; every first solve is cold.
func NewSolveState() *SolveState {
	return &SolveState{PerPath: lp.NewSolver(), Routing: routing.NewReuse()}
}

// Invalidate drops all retained state, forcing the next solves cold.
// Nil-safe.
func (st *SolveState) Invalidate() {
	if st == nil {
		return
	}
	st.PerPath.Invalidate()
	st.Routing.Invalidate()
}

// Alternating runs the paper's alternating optimization: starting from a
// feasible solution, it alternately (1) re-places content to maximize the
// saving F_{r,f} along the current serving paths (Section 4.3.1) and
// (2) re-routes under the new placement (Section 4.3.2), keeping the new
// solution only when it improves cost (with congestion as tie-breaker), and
// stopping at the first non-improving round or after MaxIters.
//
// ctx is threaded into both subproblem solvers (per-path placement and
// routing) and polled between rounds, so a caller-imposed deadline stops
// the optimizer mid-run instead of letting it finish all rounds. A nil ctx
// means no cancellation.
func Alternating(ctx context.Context, s *placement.Spec, opts AlternatingOptions) (*Solution, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 10
	}
	if opts.Rng == nil {
		seed := opts.Seed
		if seed == 0 {
			seed = rng.DefaultSeed
		}
		opts.Rng = rng.New(seed)
	}
	ropts := opts.Routing
	ropts.Fractional = opts.Fractional
	if ropts.Rng == nil {
		ropts.Rng = opts.Rng
	}
	if ropts.Workers == 0 {
		ropts.Workers = opts.Workers
	}
	var perPathSolver *lp.Solver
	if opts.State != nil {
		perPathSolver = opts.State.PerPath
		if ropts.Reuse == nil {
			ropts.Reuse = opts.State.Routing
		}
	}
	pl := opts.Initial
	if pl == nil {
		pl = s.NewPlacement()
	}
	route, err := routing.Route(ctx, s, pl, ropts)
	if err != nil {
		return nil, fmt.Errorf("core: initial routing: %w", err)
	}
	best := &Solution{Placement: pl, Routing: route, Cost: route.Cost, MaxUtilization: route.MaxUtilization}
	for iter := 1; iter <= opts.MaxIters; iter++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: canceled before iteration %d: %w", iter, err)
			}
		}
		// Placement step: the serving paths of the incumbent routing
		// define F_{r,f}; fractional path rates are handled natively.
		newPl, err := placement.PlacePerPath(ctx, s, best.Routing.Paths, placement.PerPathOptions{
			Method:  opts.PlacementMethod,
			Workers: opts.Workers,
			Solver:  perPathSolver,
		})
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d placement: %w", iter, err)
		}
		newRoute, err := routing.Route(ctx, s, newPl, ropts)
		if err != nil {
			return nil, fmt.Errorf("core: iteration %d routing: %w", iter, err)
		}
		best.Iterations = iter
		improved := newRoute.Cost < best.Cost*(1-improveTol) ||
			(newRoute.Cost <= best.Cost*(1+improveTol) && newRoute.MaxUtilization < best.MaxUtilization-improveTol)
		if !improved {
			break
		}
		best.Placement = newPl
		best.Routing = newRoute
		best.Cost = newRoute.Cost
		best.MaxUtilization = newRoute.MaxUtilization
	}
	return best, nil
}

// Validate checks that a solution respects cache capacities and serves
// every request in full, and reports the worst link utilization.
func Validate(s *placement.Spec, sol *Solution) error {
	if err := s.CheckFeasible(sol.Placement); err != nil {
		return err
	}
	served := map[placement.Request]float64{}
	for _, sp := range sol.Routing.Paths {
		served[sp.Req] += sp.Rate
	}
	for _, rq := range s.Requests() {
		want := s.Rates[rq.Item][rq.Node]
		if math.Abs(served[rq]-want) > serveTol*(1+want) {
			return fmt.Errorf("core: request %+v served %.6g of %.6g", rq, served[rq], want)
		}
	}
	return nil
}
