package strategy

import (
	"context"
	"math"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

func init() {
	register("mindelay", "MinDelay-style joint forwarding+caching: multipath splits alternate with greedy per-path caching (arXiv 1710.05130)",
		func(o Options) Strategy { return &MinDelay{Rounds: o.MaxIters, Workers: o.Workers} })
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
		paths, _ := multipathServe(spec, pl, dist)
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
		newPaths, uns := multipathServe(spec, newPl, dist)
		cand := finishPlan(spec, &Plan{Placement: newPl, Paths: newPaths, Unserved: uns})
		if best == nil || betterPlan(spec, cand, best) {
			best = cand
		}
		pl = newPl
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

// multipathServe forwards every request over (up to) its two cheapest
// distinct-replica paths, splitting the rate inversely to path cost, and
// declares requests no replica reaches as unserved. A local replica takes
// the whole rate.
func multipathServe(s *placement.Spec, pl *placement.Placement, dist [][]float64) ([]placement.ServingPath, map[placement.Request]float64) {
	trees := map[graph.NodeID]graph.ShortestTree{}
	pathFrom := func(src graph.NodeID, dst graph.NodeID) graph.Path {
		tree, ok := trees[src]
		if !ok {
			tree = graph.TreeOf(s.G, src)
			trees[src] = tree
		}
		p, _ := tree.PathTo(s.G, dst)
		return p
	}
	var paths []placement.ServingPath
	var unserved map[placement.Request]float64
	for _, rq := range s.Requests() {
		lam := s.Rates[rq.Item][rq.Node]
		// Two nearest distinct replicas (ties toward the smaller id).
		r1, r2 := -1, -1
		d1, d2 := math.Inf(1), math.Inf(1)
		for v := range pl.Stores {
			if !pl.Stores[v][rq.Item] {
				continue
			}
			d := dist[v][rq.Node]
			if d < d1 {
				r2, d2 = r1, d1
				r1, d1 = v, d
			} else if d < d2 {
				r2, d2 = v, d
			}
		}
		switch {
		case r1 < 0:
			if unserved == nil {
				unserved = map[placement.Request]float64{}
			}
			unserved[rq] += lam
		case r1 == rq.Node || r2 < 0 || math.IsInf(d2, 1):
			// A local hit or a single reachable replica: no split.
			paths = append(paths, placement.ServingPath{Req: rq, Path: pathFrom(r1, rq.Node), Rate: lam})
		default:
			// Split inversely to cost: w_p = 1/(d_p + 1), so cheaper
			// paths carry more but the second replica stays warm (the
			// multipath behavior MinDelay's hop-by-hop splits induce).
			w1, w2 := 1/(d1+1), 1/(d2+1)
			rate1 := lam * w1 / (w1 + w2)
			paths = append(paths,
				placement.ServingPath{Req: rq, Path: pathFrom(r1, rq.Node), Rate: rate1},
				placement.ServingPath{Req: rq, Path: pathFrom(r2, rq.Node), Rate: lam - rate1},
			)
		}
	}
	return paths, unserved
}
