// Package routing solves the source-selection-and-routing subproblem of
// Section 4.3.2: given an integral content placement, route every request
// from some replica of its item at minimum total cost, subject (softly) to
// link capacities. Following Lemma 4.5's generalization, a virtual source
// per content item reduces the joint problem to a pure routing problem in
// an auxiliary graph:
//
//   - MMSFP (fractional routing) is solved exactly: first by independent
//     per-content min-cost flows (optimal whenever they happen to respect
//     the shared capacities), then by the coupled multicommodity LP when
//     small enough, and otherwise by a sequential residual-capacity
//     heuristic with a capacity-oblivious last resort (the paper's
//     evaluation likewise lets algorithms exceed capacity and measures the
//     resulting congestion).
//   - MMUFP (integral routing, NP-hard [26]) is approximated by randomized
//     rounding of the splittable path flows, the method the paper's
//     evaluation uses.
package routing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"jcr/internal/core/lputil"
	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// Method names reported in Result.Method.
const (
	MethodIndependent = "independent"
	MethodLP          = "lp"
	MethodSequential  = "sequential"
)

// Numerical tolerances shared across the routing solver, named in one
// place so the package's numerics are auditable (enforced by jcrlint
// tol-literal).
const (
	// utilTol is the margin for comparing max-utilization values when
	// ranking randomized-rounding trials.
	utilTol = 1e-12
	// capSlack absorbs floating-point residue when checking aggregated
	// flow against link capacities (both relatively and absolutely).
	capSlack = 1e-9
	// flowEps is the flow value below which an LP arc flow is treated as
	// zero when extracting per-commodity flows.
	flowEps = 1e-9
)

// Options control the routing solver.
type Options struct {
	// Fractional selects MMSFP output (possibly several partial-rate
	// paths per request); otherwise each request gets one full-rate path
	// (MMUFP via randomized rounding).
	Fractional bool
	// LPMaxVars caps the size (flow variables) of the exact
	// multicommodity LP; larger instances use the sequential heuristic.
	// Zero means the default.
	LPMaxVars int
	// Rng drives randomized rounding. Nil builds a generator from
	// rng.DefaultSeed, so runs are bit-reproducible either way; see
	// DESIGN.md ("Seeding").
	Rng *rand.Rand
	// RoundingTrials is how many independent randomized roundings to
	// draw under integral routing, keeping the one with the least
	// congestion (ties broken by cost). Zero means the default of 5.
	RoundingTrials int
	// BestEffort serves what the network can reach instead of failing:
	// requests whose node cannot be reached from any replica of the item
	// (links down, network partitioned) are reported in Result.Unserved
	// rather than aborting the solve. Off by default, which preserves
	// the strict historical behavior of erroring on unreachable demand.
	BestEffort bool
	// Workers bounds the worker pool for the independent per-item
	// min-cost flows (the MMSFP fast path, where each item's flow is
	// computed on its own residual network). Zero or negative
	// means GOMAXPROCS. Results are merged in item order, so the output
	// is identical for any worker count (see internal/par).
	Workers int
	// Engine, when non-nil, serves the best-effort reach filter's
	// shortest-path trees, which repeat across alternating rounds (same
	// graph, same replicas) and repair cheaply across fault hours. Nil
	// computes cold trees; the result is identical either way. Not safe
	// for concurrent use: thread one per worker.
	Engine *graph.Engine
}

const defaultLPMaxVars = 6000

// itemDemand aggregates one content item's requests: which nodes want it
// and at what rate.
type itemDemand struct {
	item  int
	sinks map[graph.NodeID]float64
	// sorted lists the sink nodes ascending, computed once when the demand
	// set is built: the per-item flow loop and the path decomposition both
	// need a deterministic sink order.
	sorted []graph.NodeID
	total  float64
}

// Result is a routing solution.
type Result struct {
	// Paths serve the requests; under fractional routing a request may
	// appear with several partial rates summing to its demand.
	Paths []placement.ServingPath
	// Cost, Loads and MaxUtilization are measured with
	// placement.EvaluateServing semantics.
	Cost           float64
	Loads          []float64
	MaxUtilization float64
	// Method records how the splittable flow was computed.
	Method string
	// Unserved maps requests the solution does not serve (no replica of
	// the item reachable from the requester) to their demand rate. Only
	// populated under Options.BestEffort; nil when everything is served.
	Unserved map[placement.Request]float64
}

// Route solves the routing subproblem for the given placement. ctx is
// threaded into the per-item min-cost flows, the multicommodity LP, and the
// randomized-rounding loop, so a caller-imposed deadline stops the solver
// mid-run. A nil ctx means no cancellation.
func Route(ctx context.Context, s *placement.Spec, pl *placement.Placement, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if opts.LPMaxVars <= 0 {
		opts.LPMaxVars = defaultLPMaxVars
	}
	if opts.Rng == nil {
		opts.Rng = rng.New(rng.DefaultSeed)
	}
	if opts.RoundingTrials <= 0 {
		opts.RoundingTrials = 5
	}
	// Active items and their replica sets; the demand sets are built
	// fresh, so the best-effort filter edits them in place.
	var active []itemDemand
	var groups [][]graph.NodeID
	unserved := map[placement.Request]float64{}
	for _, ad := range demandSets(s) {
		reps := pl.Replicas(ad.item)
		if len(reps) == 0 {
			if opts.BestEffort {
				for v, r := range ad.sinks {
					unserved[placement.Request{Item: ad.item, Node: v}] = r
				}
				continue
			}
			return nil, fmt.Errorf("routing: item %d has no replicas", ad.item)
		}
		if opts.BestEffort {
			// Drop demand no replica can reach (links down, network
			// partitioned); the flow solvers would otherwise fail the
			// whole solve over it. Reachability is tie-independent, so the
			// engine's trees give exactly the set a structural search
			// would. Walking the sinks in sorted order keeps the
			// subtraction sequence (and hence total's last bits)
			// independent of map iteration.
			reach := opts.Engine.Reach(s.G, reps)
			kept := ad.sorted[:0]
			for _, v := range ad.sorted {
				if reach[v] {
					kept = append(kept, v)
					continue
				}
				r := ad.sinks[v]
				unserved[placement.Request{Item: ad.item, Node: v}] = r
				delete(ad.sinks, v)
				ad.total -= r
			}
			ad.sorted = kept
			if ad.total <= 0 {
				continue
			}
		}
		active = append(active, ad)
		groups = append(groups, reps)
	}
	if len(unserved) == 0 {
		unserved = nil
	}
	aux := graph.NewAuxiliary(s.G, groups)

	// Splittable per-item arc flows on the auxiliary graph.
	flows, method, err := splittableFlows(ctx, aux, active, opts)
	if err != nil {
		return nil, err
	}

	// Decompose each item's flow into per-request path options.
	type reqOptions struct {
		rq     placement.Request
		demand float64
		list   []flow.PathFlow
	}
	var all []reqOptions
	for k, ad := range active {
		vs := aux.VirtualSource[k]
		pfs, err := flow.Decompose(aux.G, flows[k], vs, ad.sinks)
		if err != nil {
			return nil, fmt.Errorf("routing: item %d (%s flows): %w", ad.item, method, err)
		}
		// Group path options by requester in first-appearance order: map
		// iteration order is randomized, and the order of `all` fixes both
		// the rounding Rng draw assignment and the cost summation order,
		// so it must be deterministic for bit-reproducible runs.
		byReq := map[graph.NodeID][]flow.PathFlow{}
		var sinkOrder []graph.NodeID
		for _, pf := range pfs {
			if _, seen := byReq[pf.Sink]; !seen {
				sinkOrder = append(sinkOrder, pf.Sink)
			}
			byReq[pf.Sink] = append(byReq[pf.Sink], pf)
		}
		for _, sink := range sinkOrder {
			// The options become base-graph paths once here, not once
			// per rounding trial.
			list := byReq[sink]
			for j := range list {
				list[j].Path, _ = aux.StripVirtual(list[j].Path)
			}
			all = append(all, reqOptions{
				rq:     placement.Request{Item: ad.item, Node: sink},
				demand: ad.sinks[sink],
				list:   list,
			})
		}
	}
	if opts.Fractional {
		var paths []placement.ServingPath
		for _, ro := range all {
			for _, pf := range ro.list {
				paths = append(paths, placement.ServingPath{Req: ro.rq, Path: pf.Path, Rate: pf.Amount})
			}
		}
		cost, loads, maxUtil := placement.EvaluateServing(s, paths, pl)
		return &Result{Paths: paths, Cost: cost, Loads: loads, MaxUtilization: maxUtil, Method: method, Unserved: unserved}, nil
	}
	// Randomized rounding (MMUFP): draw each request's single path with
	// probability proportional to its flow; repeat and keep the draw
	// with the least congestion, then the least cost.
	var best *Result
	var spare []placement.ServingPath // a losing trial's paths, reused
	for trial := 0; trial < opts.RoundingTrials; trial++ {
		if ctx != nil && best != nil {
			// Keep the incumbent rounding instead of erroring: at least
			// one trial has completed, and a deadline should not discard
			// a usable solution.
			if ctx.Err() != nil {
				break
			}
		}
		paths := spare[:0]
		if paths == nil {
			paths = make([]placement.ServingPath, 0, len(all))
		}
		for _, ro := range all {
			var total float64
			for _, pf := range ro.list {
				total += pf.Amount
			}
			chosen := ro.list[len(ro.list)-1]
			if len(ro.list) > 1 {
				pick := opts.Rng.Float64() * total
				for _, pf := range ro.list {
					if pick < pf.Amount {
						chosen = pf
						break
					}
					pick -= pf.Amount
				}
			}
			paths = append(paths, placement.ServingPath{Req: ro.rq, Path: chosen.Path, Rate: ro.demand})
		}
		cost, loads, maxUtil := placement.EvaluateServing(s, paths, pl)
		cand := &Result{Paths: paths, Cost: cost, Loads: loads, MaxUtilization: maxUtil, Method: method, Unserved: unserved}
		if best == nil ||
			cand.MaxUtilization < best.MaxUtilization-utilTol ||
			(math.Abs(cand.MaxUtilization-best.MaxUtilization) <= utilTol && cand.Cost < best.Cost) {
			if best != nil {
				spare = best.Paths
			}
			best = cand
		} else {
			spare = paths
		}
	}
	return best, nil
}

// SolveMMSFPExact computes the exact optimal fractional routing cost for a
// fixed placement via the coupled multicommodity LP, with no heuristic
// fallbacks: if the demands do not fit the link capacities it returns the
// LP's infeasibility error. Intended for reference bounds and tests; the
// evaluation-scale path is Route. A done ctx aborts the LP with an error
// wrapping ctx.Err(); nil means no cancellation.
func SolveMMSFPExact(ctx context.Context, s *placement.Spec, pl *placement.Placement) (float64, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	active := demandSets(s)
	if len(active) == 0 {
		return 0, nil
	}
	groups := make([][]graph.NodeID, len(active))
	for k, ad := range active {
		groups[k] = pl.Replicas(ad.item)
		if len(groups[k]) == 0 {
			return 0, fmt.Errorf("routing: item %d has no replicas", ad.item)
		}
	}
	aux := graph.NewAuxiliary(s.G, groups)
	flows, err := multicommodityLP(ctx, aux, active)
	if err != nil {
		return 0, err
	}
	var cost float64
	for k := range flows {
		for e, f := range flows[k] {
			cost += f * aux.G.Arc(e).Cost
		}
	}
	return cost, nil
}

// splittableFlows computes per-item arc flows (indexed like aux.G arcs)
// satisfying each item's demands, minimizing total cost within shared real
// link capacities when possible.
func splittableFlows(ctx context.Context, aux *graph.Auxiliary, active []itemDemand, opts Options) ([][]float64, string, error) {
	g := aux.G
	// 1. Independent per-item min-cost flows, each respecting the link
	// capacities on its own. The items are independent here — each one
	// routes on its own residual network over the shared, read-only
	// auxiliary graph — so they fan out on the bounded pool; flows[k] is written only by item k's worker and
	// the aggregation below runs sequentially in item order.
	flows := make([][]float64, len(active))
	if err := par.Do(ctx, opts.Workers, len(active), func(k int) error {
		f, err := itemMinCostFlow(ctx, aux, k, active[k], nil, false)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return err
			}
			// Even this single item exceeds some capacity: route it
			// capacity-obliviously; the congestion check below will
			// send us to the coupled solvers.
			f, err = itemMinCostFlow(ctx, aux, k, active[k], nil, true)
			if err != nil {
				return err
			}
		}
		flows[k] = f
		return nil
	}); err != nil {
		return nil, "", err
	}
	agg := make([]float64, g.NumArcs())
	independentOK := true
	for k := range active {
		for id, v := range flows[k] {
			agg[id] += v
		}
	}
	for id, v := range agg {
		if c := g.Arc(id).Cap; !math.IsInf(c, 1) && v > c*(1+capSlack)+capSlack {
			independentOK = false
			break
		}
	}
	if independentOK {
		return flows, MethodIndependent, nil
	}
	// 2. Exact multicommodity LP when small enough.
	if len(active)*g.NumArcs() <= opts.LPMaxVars {
		lpFlows, err := multicommodityLP(ctx, aux, active)
		if err == nil {
			return lpFlows, MethodLP, nil
		}
		if ctx != nil && ctx.Err() != nil {
			return nil, "", err
		}
		// Infeasible or numerically stuck: fall through to the
		// sequential heuristic, which always produces a solution.
	}
	// 3. Sequential residual-capacity routing, largest demand first,
	// with a capacity-oblivious fallback per item.
	order := make([]int, len(active))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return active[order[a]].total > active[order[b]].total })
	residual := make([]float64, g.NumArcs())
	for id := range residual {
		residual[id] = g.Arc(id).Cap
	}
	for _, k := range order {
		f, err := itemMinCostFlow(ctx, aux, k, active[k], residual, false)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, "", err
			}
			// No room left: route capacity-obliviously and absorb
			// the congestion (measured by the caller).
			f, err = itemMinCostFlow(ctx, aux, k, active[k], nil, true)
			if err != nil {
				return nil, "", err
			}
		}
		flows[k] = f
		for id, v := range f {
			residual[id] -= v
			if residual[id] < 0 {
				residual[id] = 0
			}
		}
	}
	return flows, MethodSequential, nil
}

// demandSets returns the per-item demand sets of s: every item with
// positive total rate, its sink map, its sinks in ascending node order and
// its total.
func demandSets(s *placement.Spec) []itemDemand {
	var out []itemDemand
	for i := 0; i < s.NumItems; i++ {
		ad := itemDemand{item: i, sinks: map[graph.NodeID]float64{}}
		for v, rate := range s.Rates[i] {
			if rate > 0 {
				ad.sinks[v] = rate
				ad.sorted = append(ad.sorted, v)
				ad.total += rate
			}
		}
		if ad.total > 0 {
			out = append(out, ad)
		}
	}
	return out
}

// sinkDemands lists an item's demands in ascending sink order: the sink
// arcs' positions influence which of several equal-cost flows the solver
// returns, so map iteration order must not leak into the flow. The order
// is precomputed when the demand set is built (see itemDemand.sorted);
// this runs once per item per solve and must not re-sort.
func (ad *itemDemand) sinkDemands() []flow.Demand {
	out := make([]flow.Demand, len(ad.sorted))
	for j, t := range ad.sorted {
		out[j] = flow.Demand{Node: t, Amount: ad.sinks[t]}
	}
	return out
}

// itemMinCostFlow routes one item's demands from its virtual source via a
// super-sink min-cost flow on the auxiliary graph. residual, if non-nil,
// overrides the capacities of the real arcs; unlimited ignores capacities
// entirely (the capacity-oblivious last resort, whose congestion the
// caller measures).
func itemMinCostFlow(ctx context.Context, aux *graph.Auxiliary, k int, ad itemDemand, residual []float64, unlimited bool) ([]float64, error) {
	var capOf func(graph.ArcID) float64
	switch {
	case unlimited:
		capOf = func(graph.ArcID) float64 { return graph.Unlimited }
	case residual != nil:
		capOf = func(id graph.ArcID) float64 {
			if aux.IsVirtualArc(id) {
				return aux.G.Arc(id).Cap
			}
			return residual[id]
		}
	}
	return flow.MinCostFlowToSinks(ctx, aux.G, capOf, aux.VirtualSource[k], ad.sinkDemands())
}

// multicommodityLP solves the coupled MMSFP exactly: one flow variable per
// (item, arc), per-item conservation, shared capacity on real arcs.
func multicommodityLP(ctx context.Context, aux *graph.Auxiliary, active []itemDemand) ([][]float64, error) {
	g := aux.G
	m := g.NumArcs()
	nc := len(active)
	p := lp.NewProblem(nc * m)
	fIdx := func(k, e int) int { return k*m + e }
	for k := range active {
		for e := 0; e < m; e++ {
			p.SetObjectiveCoeff(fIdx(k, e), g.Arc(e).Cost)
		}
	}
	// Conservation per item and node. Self-loop arcs appear in both Out
	// and In, which the row builder coalesces to a zero coefficient.
	row := lp.NewRowBuilder(p)
	for k, ad := range active {
		vs := aux.VirtualSource[k]
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.Out(v) {
				row.Add(fIdx(k, e), 1)
			}
			for _, e := range g.In(v) {
				row.Add(fIdx(k, e), -1)
			}
			supply := 0.0
			if v == vs {
				supply = ad.total
			} else if d, isSink := ad.sinks[v]; isSink {
				supply = -d
			}
			if row.Len() == 0 {
				if supply != 0 {
					return nil, fmt.Errorf("routing: node %d has demand but no incident arcs", v)
				}
				continue
			}
			// Other items' virtual sources are isolated from item
			// k's flow: their virtual arcs stay unused because no
			// flow can enter them (in-degree 0 for vs).
			if err := row.Constrain(lp.EQ, supply); err != nil {
				return nil, fmt.Errorf("routing: multicommodity LP: %w", err)
			}
		}
	}
	// Shared capacities on real arcs.
	for e := 0; e < m; e++ {
		c := g.Arc(e).Cap
		if math.IsInf(c, 1) {
			continue
		}
		for k := 0; k < nc; k++ {
			row.Add(fIdx(k, e), 1)
		}
		if err := row.Constrain(lp.LE, c); err != nil {
			return nil, fmt.Errorf("routing: multicommodity LP: %w", err)
		}
	}
	sol, err := p.Solve(ctx)
	if err != nil {
		return nil, fmt.Errorf("routing: multicommodity LP: %w", err)
	}
	return lputil.ExtractGrid(sol.X, 0, nc, m, lputil.Floor(flowEps)), nil
}
