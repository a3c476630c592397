package strategy

import (
	"context"
	"math"

	"jcr/internal/placement"
)

func init() {
	register("mindelay", "MinDelay-style joint forwarding+caching: multipath splits alternate with greedy per-path caching (arXiv 1710.05130)",
		func(o Options) Strategy {
			return &MinDelay{Rounds: o.MaxIters, Workers: o.Workers, bestEffort: o.BestEffort}
		})
}

// MinDelay is a MinDelay-style joint forwarding-and-caching heuristic
// (arXiv 1710.05130), adapted to this repo's rate-based model: the
// forwarding plane splits each request's flow over the k=2 cheapest
// replica paths (inversely weighted by path cost — the load-spreading the
// original achieves with marginal-delay gradients at each hop), and the
// caching plane re-places content to maximize the per-path saving along
// the current forwarding paths. The two alternate for a few rounds,
// keeping the best (most-served, then cheapest, then least congested)
// iterate. Unlike the paper's alternating optimizer it never solves the
// routing subproblem to optimality and its splits ignore link capacities —
// the structural gap the arena is meant to expose.
type MinDelay struct {
	// Rounds is how many forwarding/caching alternations run; zero
	// means 4.
	Rounds int
	// Workers bounds the caching subproblem's worker pool.
	Workers int
	// bestEffort (Options.BestEffort) declares requests with no
	// reachable replica in Plan.Unserved instead of failing the solve.
	bestEffort bool
}

// Name implements Strategy.
func (m *MinDelay) Name() string { return "mindelay" }

// Decide implements Strategy.
func (m *MinDelay) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	spec := inst.Spec
	dist := inst.Distances()
	rounds := m.Rounds
	if rounds <= 0 {
		rounds = 4
	}
	pl := spec.NewPlacement() // origin-only start, trivially feasible
	var best *Plan
	iters := 0
	for t := 0; t < rounds; t++ {
		if err := pollCtx(ctx, "mindelay round"); err != nil {
			return nil, Stats{}, err
		}
		iters = t + 1
		// Forwarding step: split every request over its two cheapest
		// replica paths under the current placement.
		paths, _ := placement.MultipathServing(spec, pl, dist)
		// Caching step: re-place to maximize the saving along those
		// paths (the greedy file-level subroutine; ctx-aware).
		newPl, err := placement.PlacePerPath(ctx, spec, paths, placement.PerPathOptions{
			Method:  placement.PerPathGreedy,
			Workers: m.Workers,
		})
		if err != nil {
			return nil, Stats{}, err
		}
		// Re-aim forwarding at the new replicas and score the iterate.
		newPaths, uns := placement.MultipathServing(spec, newPl, dist)
		cand := finishPlan(spec, &Plan{Placement: newPl, Paths: newPaths, Unserved: uns})
		if best == nil || betterPlan(spec, cand, best) {
			best = cand
		}
		pl = newPl
	}
	if err := checkUnserved("mindelay", m.bestEffort, best.Unserved); err != nil {
		return nil, Stats{}, err
	}
	return best, Stats{Iterations: iters, Method: "multipath+greedy"}, nil
}

// betterPlan ranks candidate plans: more served demand first, then lower
// cost, then lower congestion.
func betterPlan(spec *placement.Spec, a, b *Plan) bool {
	ua, ub := a.UnservedMass(), b.UnservedMass()
	if math.Abs(ua-ub) > costTol*(1+math.Abs(ua)) {
		return ua < ub
	}
	if math.Abs(a.Cost-b.Cost) > costTol*(1+math.Abs(a.Cost)) {
		return a.Cost < b.Cost
	}
	return a.MaxUtilization < b.MaxUtilization
}
