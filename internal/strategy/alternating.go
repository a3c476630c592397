package strategy

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"jcr/internal/core"
	"jcr/internal/placement"
	"jcr/internal/routing"
)

func init() {
	register("alternating", "Section 4.3.3 alternating placement/routing optimization (ours)",
		func(o Options) Strategy {
			return &Alternating{
				Fractional:     o.Fractional,
				WarmStart:      o.WarmStart,
				BestEffort:     o.BestEffort,
				Rng:            o.Rng,
				Seed:           o.Seed,
				Workers:        o.Workers,
				MaxIters:       o.MaxIters,
				RoundingTrials: o.RoundingTrials,
				NoSolverReuse:  o.NoSolverReuse,
			}
		})
}

// Alternating is the paper's Section 4.3.3 optimizer behind the Strategy
// interface: alternate the per-path placement subproblem with the routing
// subproblem until no round improves. It is a Warm strategy: unless
// NoSolverReuse is set it carries a core.SolveState (warm LP bases and
// routing caches) across rounds and Decide calls, and with WarmStart it
// additionally seeds each Decide with the previous plan's placement.
type Alternating struct {
	// Fractional selects IC-FR routing; default is IC-IR.
	Fractional bool
	// WarmStart seeds each Decide with the previous Decide's placement,
	// evicted down to the current capacities when caches shrank or
	// failed.
	WarmStart bool
	// BestEffort routes around failed links: demand with no reachable
	// replica is declared in Plan.Unserved instead of failing the solve,
	// and a repair post-pass re-homes content for stranded requesters
	// (see repairStranded).
	BestEffort bool
	// Rng drives the routing's randomized rounding; nil derives a
	// generator from Seed per Decide.
	Rng *rand.Rand
	// Seed seeds the rounding generator when Rng is nil; zero means
	// rng.DefaultSeed.
	Seed int64
	// Workers bounds the subproblem solvers' worker pools.
	Workers int
	// MaxIters bounds the alternating rounds; zero means 10.
	MaxIters int
	// RoundingTrials is the routing layer's randomized-rounding draw
	// count; zero means its default.
	RoundingTrials int
	// PlacementMethod picks the Section 4.3.1 subroutine variant.
	PlacementMethod placement.PerPathMethod
	// NoSolverReuse disables the carried SolveState; every subproblem
	// then solves cold, reproducing single-shot historical behavior.
	NoSolverReuse bool
	// Decompose, when non-nil, threads the partition-aware routing path
	// into every round's routing subproblem (see routing.DecomposeOptions
	// and the Decomposed strategy wrapping this).
	Decompose *routing.DecomposeOptions

	prev  *placement.Placement
	state *core.SolveState
}

// Name implements Strategy.
func (a *Alternating) Name() string { return "alternating" }

// Invalidate implements Warm: the next Decide starts cold, with no carried
// placement and no retained solver state.
func (a *Alternating) Invalidate() {
	a.prev = nil
	a.state.Invalidate()
}

// Decide implements Strategy.
func (a *Alternating) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	spec := inst.Spec
	opts := core.AlternatingOptions{
		Fractional:      a.Fractional,
		Rng:             a.Rng,
		Seed:            a.Seed,
		Workers:         a.Workers,
		MaxIters:        a.MaxIters,
		PlacementMethod: a.PlacementMethod,
	}
	opts.Routing.BestEffort = a.BestEffort
	opts.Routing.RoundingTrials = a.RoundingTrials
	opts.Routing.Decompose = a.Decompose
	if !a.NoSolverReuse {
		if a.state == nil {
			a.state = core.NewSolveState()
		}
		opts.State = a.state
	}
	switch {
	case a.WarmStart && a.prev != nil:
		init := a.prev
		if spec.CheckFeasible(init) != nil {
			// Caches shrank or failed since the last solve: the lost
			// content cannot seed this round's optimization.
			init = init.Clone()
			spec.EvictToFit(init)
		}
		opts.Initial = init
	case inst.Initial != nil:
		opts.Initial = inst.Initial
	}
	sol, err := core.Alternating(ctx, spec, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	pths, uns := sol.Routing.Paths, sol.Routing.Unserved
	cost, util := sol.Cost, sol.MaxUtilization
	if a.BestEffort && len(uns) > 0 {
		pths = repairStranded(spec, sol.Placement, pths, uns, inst.Distances())
		// The repair moved content and dropped paths; re-measure.
		cost, _, util = placement.EvaluateServing(spec, pths, sol.Placement)
	}
	a.prev = sol.Placement
	plan := &Plan{Placement: sol.Placement, Paths: pths, Unserved: uns, Cost: cost, MaxUtilization: util}
	return plan, Stats{Iterations: sol.Iterations, Method: sol.Routing.Method}, nil
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
// demand declared unserved; the repaired request's own Unserved entry
// stays, and the evaluator re-checks reachability and serves it from the
// new replica. Returns the surviving paths.
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
