// Package exact provides brute-force reference solvers for tiny instances
// of the joint caching and routing problem (Eq. 1). They are exponential
// and exist to measure the empirical approximation quality of the
// polynomial-time algorithms (the role the generic branch-and-bound MILP
// plays in the literature the paper cites): IC-FR is solved by enumerating
// integral placements and routing each exactly as a multicommodity LP;
// IC-IR additionally enumerates per-request path choices with
// branch-and-bound pruning on cost and capacity.
package exact

import (
	"context"
	"errors"
	"fmt"
	"math"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/routing"
)

// ErrTooLarge reports an instance beyond the brute-force limits.
var ErrTooLarge = errors.New("exact: instance too large for brute force")

// ErrInfeasible reports that no feasible solution exists.
var ErrInfeasible = errors.New("exact: infeasible")

// limits keep the enumeration affordable.
const (
	maxPlacements = 200000
	maxPathsPer   = 48
	maxRequests   = 12
	maxSlots      = 22 // 2^22 placements is already generous
)

// Fits reports whether a spec is within the brute-force structural limits
// (cache slots and request count). It is a quick pre-check: enumeration
// can still abort with ErrTooLarge when the feasible-placement count or a
// request's candidate-path count blows up.
func Fits(s *placement.Spec) bool {
	slots := 0
	for v := 0; v < s.G.NumNodes(); v++ {
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			slots += s.NumItems
		}
	}
	return slots <= maxSlots && len(s.Requests()) <= maxRequests
}

// capSlack absorbs floating-point residue (relative and absolute) when
// comparing occupancies and loads against cache and link capacities.
const capSlack = 1e-9

// Result is an exact optimum.
type Result struct {
	Cost      float64
	Placement *placement.Placement
	// Paths is the optimal integral routing (one full-rate serving path
	// per request), recorded by SolveICIR; nil for SolveICFR, whose
	// fractional routing is characterized only by its cost.
	Paths []placement.ServingPath
}

// ctxStride is how many enumerated placements go by between cancellation
// polls; a power of two so the check is a mask.
const ctxStride = 256

// SolveICFR computes the exact IC-FR optimum (integral caching, fractional
// routing) by enumerating all cache-feasible integral placements and
// solving each routing subproblem exactly. Homogeneous or heterogeneous
// item sizes are both supported. ctx is polled every few hundred
// enumerated placements and reaches every per-placement routing LP; a nil
// ctx means no cancellation.
func SolveICFR(ctx context.Context, s *placement.Spec) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exact: %w", err)
		}
	}
	best := &Result{Cost: math.Inf(1)}
	err := enumeratePlacements(ctx, s, func(pl *placement.Placement) error {
		cost, err := routing.SolveMMSFPExact(ctx, s, pl)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return fmt.Errorf("exact: %w", ctx.Err())
			}
			return nil // this placement cannot serve the demand; skip
		}
		if cost < best.Cost {
			best.Cost = cost
			best.Placement = clonePlacement(pl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if best.Placement == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

// SolveICIR computes the exact IC-IR optimum (integral caching, integral
// routing): for every cache-feasible placement, every request chooses one
// simple path from one replica, subject to joint link capacities;
// branch-and-bound prunes on accumulated cost and capacity. ctx is polled
// every few hundred enumerated placements; a nil ctx means no
// cancellation. The result additionally records the optimal per-request
// serving paths.
func SolveICIR(ctx context.Context, s *placement.Spec) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("exact: %w", err)
		}
	}
	reqs := s.Requests()
	if len(reqs) > maxRequests {
		return nil, fmt.Errorf("%w: %d requests (max %d)", ErrTooLarge, len(reqs), maxRequests)
	}
	best := &Result{Cost: math.Inf(1)}
	err := enumeratePlacements(ctx, s, func(pl *placement.Placement) error {
		cost, arcs, ok, err := bestIntegralRouting(s, pl, reqs, best.Cost)
		if err != nil {
			return err
		}
		if ok && cost < best.Cost {
			best.Cost = cost
			best.Placement = clonePlacement(pl)
			best.Paths = best.Paths[:0]
			for ri, rq := range reqs {
				best.Paths = append(best.Paths, placement.ServingPath{
					Req:  rq,
					Path: graph.Path{Arcs: arcs[ri]},
					Rate: s.Rates[rq.Item][rq.Node],
				})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if best.Placement == nil {
		return nil, ErrInfeasible
	}
	return best, nil
}

// enumeratePlacements calls fn for every cache-feasible placement (pinned
// nodes always store everything), polling ctx every ctxStride placements.
func enumeratePlacements(ctx context.Context, s *placement.Spec, fn func(*placement.Placement) error) error {
	type slot struct {
		v graph.NodeID
		i int
	}
	var slots []slot
	for v := 0; v < s.G.NumNodes(); v++ {
		if s.CacheCap[v] <= 0 || s.IsPinned(v) {
			continue
		}
		for i := 0; i < s.NumItems; i++ {
			slots = append(slots, slot{v, i})
		}
	}
	if len(slots) > maxSlots {
		return fmt.Errorf("%w: %d cache slots", ErrTooLarge, len(slots))
	}
	pl := s.NewPlacement()
	residual := make([]float64, s.G.NumNodes())
	for v := range residual {
		residual[v] = s.CacheCap[v]
	}
	count := 0
	var rec func(k int) error
	rec = func(k int) error {
		if k == len(slots) {
			count++
			if count > maxPlacements {
				return fmt.Errorf("%w: more than %d placements", ErrTooLarge, maxPlacements)
			}
			if ctx != nil && count%ctxStride == 0 {
				if err := ctx.Err(); err != nil {
					return fmt.Errorf("exact: canceled after %d placements: %w", count, err)
				}
			}
			return fn(pl)
		}
		if err := rec(k + 1); err != nil {
			return err
		}
		sl := slots[k]
		if s.Size(sl.i) <= residual[sl.v]+capSlack {
			pl.Stores[sl.v][sl.i] = true
			residual[sl.v] -= s.Size(sl.i)
			if err := rec(k + 1); err != nil {
				return err
			}
			pl.Stores[sl.v][sl.i] = false
			residual[sl.v] += s.Size(sl.i)
		}
		return nil
	}
	return rec(0)
}

// bestIntegralRouting finds the cheapest capacity-feasible assignment of
// one simple path per request under the placement, pruning branches whose
// partial cost reaches `bound`. The boolean result reports feasibility;
// when feasible, the second result holds the winning arc sequence per
// request (empty for a local hit), aligned with reqs.
func bestIntegralRouting(s *placement.Spec, pl *placement.Placement, reqs []placement.Request, bound float64) (float64, [][]graph.ArcID, bool, error) {
	// Candidate paths per request: all simple paths from every replica.
	type option struct {
		arcs []graph.ArcID
		cost float64
	}
	options := make([][]option, len(reqs))
	for ri, rq := range reqs {
		var opts []option
		for v := range pl.Stores {
			if !pl.Stores[v][rq.Item] {
				continue
			}
			if v == rq.Node {
				opts = append(opts, option{}) // served locally
				continue
			}
			paths := allSimplePaths(s.G, v, rq.Node, maxPathsPer-len(opts))
			for _, p := range paths {
				opts = append(opts, option{arcs: p.Arcs, cost: p.Cost(s.G)})
			}
			if len(opts) > maxPathsPer {
				return 0, nil, false, fmt.Errorf("%w: request %v has too many candidate paths", ErrTooLarge, rq)
			}
		}
		if len(opts) == 0 {
			return 0, nil, false, nil // unservable under this placement
		}
		// Cheapest first for tighter pruning.
		for a := 1; a < len(opts); a++ {
			for b := a; b > 0 && opts[b].cost < opts[b-1].cost; b-- {
				opts[b], opts[b-1] = opts[b-1], opts[b]
			}
		}
		options[ri] = opts
	}
	load := make([]float64, s.G.NumArcs())
	best := bound
	found := false
	choice := make([]int, len(reqs))
	bestChoice := make([]int, len(reqs))
	var rec func(ri int, cost float64)
	rec = func(ri int, cost float64) {
		if cost >= best {
			return
		}
		if ri == len(reqs) {
			best = cost
			found = true
			copy(bestChoice, choice)
			return
		}
		lam := s.Rates[reqs[ri].Item][reqs[ri].Node]
		for oi, opt := range options[ri] {
			ok := true
			for _, id := range opt.arcs {
				if load[id]+lam > s.G.Arc(id).Cap*(1+capSlack)+capSlack {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, id := range opt.arcs {
				load[id] += lam
			}
			choice[ri] = oi
			rec(ri+1, cost+lam*opt.cost)
			for _, id := range opt.arcs {
				load[id] -= lam
			}
		}
	}
	rec(0, 0)
	if !found {
		return best, nil, false, nil
	}
	arcs := make([][]graph.ArcID, len(reqs))
	for ri := range reqs {
		arcs[ri] = append([]graph.ArcID(nil), options[ri][bestChoice[ri]].arcs...)
	}
	return best, arcs, true, nil
}

// allSimplePaths enumerates up to limit simple paths from src to dst.
func allSimplePaths(g *graph.Graph, src, dst graph.NodeID, limit int) []graph.Path {
	var out []graph.Path
	onPath := make([]bool, g.NumNodes())
	var arcs []graph.ArcID
	var dfs func(v graph.NodeID)
	dfs = func(v graph.NodeID) {
		if len(out) >= limit {
			return
		}
		if v == dst {
			out = append(out, graph.Path{Arcs: append([]graph.ArcID(nil), arcs...)})
			return
		}
		onPath[v] = true
		for _, id := range g.Out(v) {
			w := g.Arc(id).To
			if onPath[w] || w == src {
				continue
			}
			arcs = append(arcs, id)
			dfs(w)
			arcs = arcs[:len(arcs)-1]
		}
		onPath[v] = false
	}
	if src != dst {
		dfs(src)
	}
	return out
}

func clonePlacement(pl *placement.Placement) *placement.Placement {
	out := &placement.Placement{Stores: make([][]bool, len(pl.Stores))}
	for v := range pl.Stores {
		out.Stores[v] = append([]bool(nil), pl.Stores[v]...)
	}
	return out
}
