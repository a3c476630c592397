package strategy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/placement"
	"jcr/internal/routing"
)

func init() {
	register("alternating", "Section 4.3.3 alternating placement/routing optimization (ours)",
		func(o Options) Strategy { return &Alternating{Options: o} })
}

// improveTol is the relative cost margin below which an alternating round
// does not count as an improvement; it also breaks equal-cost ties on
// congestion.
const improveTol = 1e-9

// Alternating is the paper's Section 4.3.3 optimizer: starting from a
// feasible placement, it alternately (1) re-places content to maximize the
// saving F_{r,f} along the current serving paths (Section 4.3.1) and
// (2) re-routes under the new placement (Section 4.3.2), keeping a round
// only when it improves cost (with congestion as tie-breaker), and stopping
// at the first non-improving round or after MaxIters (zero means 10; the
// paper observes convergence within 10 in all evaluated cases).
//
// Unless NoSolverReuse is set it carries the per-path LP's warm-start
// handle and the routing's shortest-path tree engine across rounds and
// Decide calls, and with WarmStart it additionally seeds each Decide with
// the previous plan's placement; a fresh Alternating starts cold. With BestEffort, demand with no reachable
// replica is declared in Plan.Unserved instead of failing the solve, and a
// repair post-pass re-homes content for stranded requesters (see
// repairStranded). The carried state is not safe for concurrent use; give
// parallel workers one Alternating each (DESIGN.md §3.9).
type Alternating struct {
	Options

	prev    *placement.Placement
	perPath *lp.Solver
	eng     *graph.Engine
}

// Name implements Strategy.
func (a *Alternating) Name() string { return "alternating" }

// Decide implements Strategy. ctx is threaded into both subproblem solvers
// and polled between rounds, so a deadline stops the optimizer mid-run.
func (a *Alternating) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	spec := inst.Spec
	if err := spec.Validate(); err != nil {
		return nil, Stats{}, err
	}
	maxIters := a.MaxIters
	if maxIters <= 0 {
		maxIters = 10
	}
	ropts := a.routing(a.rand())
	var perPath *lp.Solver
	if !a.NoSolverReuse {
		if a.eng == nil {
			a.perPath, a.eng = lp.NewSolver(), graph.NewEngine()
		}
		perPath, ropts.Engine = a.perPath, a.eng
	}
	pl := a.seed(inst)
	best, err := routing.Route(ctx, spec, pl, ropts)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("strategy: alternating initial routing: %w", err)
	}
	iters := 0
	for iter := 1; iter <= maxIters; iter++ {
		if err := pollCtx(ctx, "alternating round"); err != nil {
			return nil, Stats{}, err
		}
		// Placement step: the serving paths of the incumbent routing
		// define F_{r,f}; fractional path rates are handled natively.
		newPl, err := placement.PlacePerPath(ctx, spec, best.Paths, placement.PerPathOptions{
			Workers: a.Workers,
			Solver:  perPath,
		})
		if err != nil {
			return nil, Stats{}, fmt.Errorf("strategy: alternating round %d placement: %w", iter, err)
		}
		route, err := routing.Route(ctx, spec, newPl, ropts)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("strategy: alternating round %d routing: %w", iter, err)
		}
		iters = iter
		improved := route.Cost < best.Cost*(1-improveTol) ||
			(route.Cost <= best.Cost*(1+improveTol) && route.MaxUtilization < best.MaxUtilization-improveTol)
		if !improved {
			break
		}
		pl, best = newPl, route
	}
	pths, uns := best.Paths, best.Unserved
	cost, util := best.Cost, best.MaxUtilization
	if a.BestEffort && len(uns) > 0 {
		dist := inst.Distances()
		pths = repairStranded(spec, pl, pths, uns, dist)
		pths, uns = serveReachable(spec, pl, pths, uns, dist)
		// The repair moved content and dropped paths; re-measure.
		cost, _, util = placement.EvaluateServing(spec, pths, pl)
	}
	a.prev = pl
	plan := &Plan{Placement: pl, Paths: pths, Unserved: uns, Cost: cost, MaxUtilization: util}
	return plan, Stats{Iterations: iters, Method: best.Method}, nil
}

// seed returns the placement the loop starts from: the previous Decide's
// placement under WarmStart, else the instance's Initial, else the
// pinned-only placement (everything served by the origin). The caller's
// Initial is copied, because the plan's placement may be written to (the
// best-effort repair), and a seed over the current capacities -- caches
// shrank or failed since it was computed -- is copied and evicted down to
// fit, so the loop starts feasible.
func (a *Alternating) seed(inst Instance) *placement.Placement {
	pl := inst.Initial
	if a.WarmStart && a.prev != nil {
		pl = a.prev
	}
	if pl == nil {
		return inst.Spec.NewPlacement()
	}
	if pl == inst.Initial || inst.Spec.CheckFeasible(pl) != nil {
		pl = pl.Clone()
		inst.Spec.EvictToFit(pl)
	}
	return pl
}

// repairStranded is the degradation-aware post-pass of the best-effort
// alternating strategy. The optimizer has no objective term for demand it
// declared unserved (no path reaches a replica), so on a partitioned
// network it leaves cut-off components without the content their caches
// could hold. For each stranded request, largest demand first, this stores
// the item at the nearest cache its requester can still reach, evicting the
// slots whose loss is cheapest -- where an eviction's loss counts only
// demand that becomes truly stranded (a dropped request with another
// reachable replica is re-served via nearest-replica fallback) -- and
// accepts a swap only when it strands strictly less demand than it
// recovers. Paths served from an evicted replica are dropped and their
// demand declared unserved; serveReachable then serves every unserved
// request a replica reaches. Returns the surviving paths.
func repairStranded(spec *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, unserved map[placement.Request]float64, dist [][]float64) []placement.ServingPath {
	// Paths indexed by their replica: the response originates at the
	// path's source (at the requester itself for a local hit), so
	// evicting that copy drops these paths.
	bySource := map[placement.Request][]int{}
	for k := range paths {
		src := paths[k].Req.Node
		if len(paths[k].Path.Arcs) > 0 {
			src = paths[k].Path.Source(spec.G)
		}
		key := placement.Request{Item: paths[k].Req.Item, Node: src}
		bySource[key] = append(bySource[key], k)
	}
	dropped := make([]bool, len(paths))
	// reachOther reports a live replica of item j reaching node s other
	// than the one at skip (pass skip < 0 for "any replica").
	reachOther := func(j, s, skip int) bool {
		for u := range pl.Stores {
			if u != skip && pl.Stores[u][j] && !math.IsInf(dist[u][s], 1) {
				return true
			}
		}
		return false
	}
	// lossOf is the demand truly stranded by evicting item j from v: the
	// requests served from that replica with no other reachable copy.
	// (Declared-unserved requests reach no replica at all, so they never
	// add to the loss.)
	lossOf := func(v, j int) float64 {
		var loss float64
		counted := map[int]bool{}
		for _, k := range bySource[placement.Request{Item: j, Node: v}] {
			if dropped[k] {
				continue
			}
			s := paths[k].Req.Node
			if counted[s] || reachOther(j, s, v) {
				continue
			}
			counted[s] = true
			loss += spec.Rates[j][s]
		}
		return loss
	}
	evictReplica := func(v, j int) {
		for _, k := range bySource[placement.Request{Item: j, Node: v}] {
			if dropped[k] {
				continue
			}
			dropped[k] = true
			unserved[paths[k].Req] += paths[k].Rate
		}
		pl.Stores[v][j] = false
	}
	reqs := make([]placement.Request, 0, len(unserved))
	for rq := range unserved {
		reqs = append(reqs, rq)
	}
	sort.Slice(reqs, func(a, b int) bool {
		//jcrlint:allow float-eq: deterministic sort tie-break, not a tolerance check
		if la, lb := unserved[reqs[a]], unserved[reqs[b]]; la != lb {
			return la > lb
		}
		if reqs[a].Item != reqs[b].Item {
			return reqs[a].Item < reqs[b].Item
		}
		return reqs[a].Node < reqs[b].Node
	})
	for _, rq := range reqs {
		lam := unserved[rq]
		if lam <= 0 || reachOther(rq.Item, rq.Node, -1) {
			continue // already repaired by an earlier request's replica
		}
		type cand struct {
			v int
			d float64
		}
		var cands []cand
		for v := range pl.Stores {
			if spec.IsPinned(v) || spec.CacheCap[v] <= 0 {
				continue
			}
			if d := dist[v][rq.Node]; !math.IsInf(d, 1) {
				cands = append(cands, cand{v, d})
			}
		}
		sort.Slice(cands, func(a, b int) bool {
			//jcrlint:allow float-eq: deterministic sort tie-break, not a tolerance check
			if cands[a].d != cands[b].d {
				return cands[a].d < cands[b].d
			}
			return cands[a].v < cands[b].v
		})
		for _, c := range cands {
			if repairStoreAt(spec, pl, lossOf, evictReplica, c.v, rq, lam) {
				break
			}
		}
	}
	var out []placement.ServingPath
	for k := range paths {
		if !dropped[k] {
			out = append(out, paths[k])
		}
	}
	return out
}

// serveReachable serves the unserved demand that some replica reaches
// under pl, after the repair stocked new replicas or dropped paths whose
// request has another copy: each such request gets its unserved rate over
// its nearest replica's shortest path (placement.RNRServing's rule,
// capacity-obliviously). Returns the extended paths and the demand that
// stays unserved (nil when none does).
func serveReachable(spec *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, unserved map[placement.Request]float64, dist [][]float64) ([]placement.ServingPath, map[placement.Request]float64) {
	rest := *spec
	rest.Rates = make([][]float64, spec.NumItems)
	for i := range rest.Rates {
		rest.Rates[i] = make([]float64, spec.G.NumNodes())
	}
	for rq, lam := range unserved {
		rest.Rates[rq.Item][rq.Node] = lam
	}
	served, uns := placement.RNRServing(&rest, pl, dist, nil)
	return append(paths, served...), uns
}

// repairStoreAt tries to store rq's item at cache v, freeing space by
// evicting the cheapest-loss slots first. It refuses a swap that does not
// strictly pay for itself in stranded demand.
func repairStoreAt(spec *placement.Spec, pl *placement.Placement, lossOf func(v, j int) float64, evictReplica func(v, j int), v int, rq placement.Request, lam float64) bool {
	need := spec.Occupancy(pl, v) + spec.Size(rq.Item) - spec.CacheCap[v]
	if need <= 0 {
		pl.Stores[v][rq.Item] = true
		return true
	}
	type slot struct {
		j    int
		loss float64
	}
	var slots []slot
	for j := 0; j < spec.NumItems; j++ {
		if pl.Stores[v][j] && j != rq.Item {
			slots = append(slots, slot{j, lossOf(v, j)})
		}
	}
	sort.Slice(slots, func(a, b int) bool {
		//jcrlint:allow float-eq: deterministic sort tie-break, not a tolerance check
		if slots[a].loss != slots[b].loss {
			return slots[a].loss < slots[b].loss
		}
		return slots[a].j < slots[b].j
	})
	var freed, loss float64
	var evict []int
	for _, sl := range slots {
		if freed >= need {
			break
		}
		evict = append(evict, sl.j)
		freed += spec.Size(sl.j)
		loss += sl.loss
	}
	if freed < need || loss >= lam {
		return false
	}
	for _, j := range evict {
		evictReplica(v, j)
	}
	pl.Stores[v][rq.Item] = true
	return true
}
