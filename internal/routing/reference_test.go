package routing

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"jcr/internal/core/lputil"
	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// countShips returns ctx carrying a ship observer that counts into n.
func countShips(ctx context.Context, n *atomic.Int64) context.Context {
	return context.WithValue(ctx, shipObserverKey{}, func() { n.Add(1) })
}

// referenceInstance draws a random spec and placement for
// TestRouteMatchesReference. Node 0 is the pinned origin; caches store
// random items; tight link capacities make the items contend (tight),
// ample ones let the independent flows fit. island adds two nodes that
// no replica reaches, with demand of their own.
func referenceInstance(r *rand.Rand, tight, island bool) (*placement.Spec, *placement.Placement) {
	n := 4 + r.Intn(8)
	total := n
	if island {
		total += 2
	}
	g := graph.New(total)
	capOf := func() float64 {
		if tight {
			return 0.5 + 4*r.Float64()
		}
		return 50 + 50*r.Float64()
	}
	for v := 1; v < n; v++ {
		// Costs repeat, so equal-cost ties are common.
		g.AddEdge(r.Intn(v), v, float64(1+r.Intn(4)), capOf())
	}
	for e := 0; e < n/2; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddEdge(u, v, float64(1+r.Intn(4)), capOf())
		}
	}
	if island {
		g.AddEdge(n, n+1, 1, capOf())
	}
	items := 1 + r.Intn(6)
	s := &placement.Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, total),
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, items),
	}
	pl := s.NewPlacement()
	for i := range s.Rates {
		s.Rates[i] = make([]float64, total)
		for v := 1; v < total; v++ {
			if r.Float64() < 0.5 {
				s.Rates[i][v] = 0.1 + 2*r.Float64()
			}
		}
		if r.Float64() < 0.6 {
			pl.Stores[1+r.Intn(n-1)][i] = true
		}
	}
	return s, pl
}

// sameResult reports the first difference between two routing results,
// comparing floats by their bits, or "" when they are identical.
func sameResult(got, want *Result) string {
	bitsEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case got.Method != want.Method:
		return fmt.Sprintf("method %q, reference %q", got.Method, want.Method)
	case !bitsEq(got.Cost, want.Cost):
		return fmt.Sprintf("cost %v, reference %v", got.Cost, want.Cost)
	case !bitsEq(got.MaxUtilization, want.MaxUtilization):
		return fmt.Sprintf("max utilization %v, reference %v", got.MaxUtilization, want.MaxUtilization)
	case len(got.Paths) != len(want.Paths):
		return fmt.Sprintf("%d paths, reference %d", len(got.Paths), len(want.Paths))
	case len(got.Loads) != len(want.Loads):
		return fmt.Sprintf("%d loads, reference %d", len(got.Loads), len(want.Loads))
	case (got.Unserved == nil) != (want.Unserved == nil) || len(got.Unserved) != len(want.Unserved):
		return fmt.Sprintf("unserved %v, reference %v", got.Unserved, want.Unserved)
	}
	for i, p := range want.Paths {
		q := got.Paths[i]
		if q.Req != p.Req || !bitsEq(q.Rate, p.Rate) || fmt.Sprint(q.Path.Arcs) != fmt.Sprint(p.Path.Arcs) {
			return fmt.Sprintf("path %d: %+v, reference %+v", i, q, p)
		}
	}
	for id, l := range want.Loads {
		if !bitsEq(got.Loads[id], l) {
			return fmt.Sprintf("load of arc %d: %v, reference %v", id, got.Loads[id], l)
		}
	}
	for rq, r := range want.Unserved {
		if g, ok := got.Unserved[rq]; !ok || !bitsEq(g, r) {
			return fmt.Sprintf("unserved %+v: %v, reference %v", rq, g, r)
		}
	}
	return ""
}

// TestRouteMatchesReference checks Route against refRoute, the solver as
// it was before the independent rung stopped at the first overflow, on
// random instances with tight and ample capacities, 1 and 3 workers,
// fractional and integral routing, and best-effort routing around
// unreachable demand; the LP rung is forbidden on some, so all three
// rungs fire. Every Result field must agree, floats by their bits, and
// Route must never solve more min-cost flows than refRoute, and exactly
// as many when the independent flows fit.
func TestRouteMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	methods := map[string]int{}
	unserved, saved := 0, 0
	const instances = 320
	for trial := 0; trial < instances; trial++ {
		tight, island := trial%2 == 0, trial%3 == 0
		s, pl := referenceInstance(r, tight, island)
		lpMax := 0
		if trial%5 == 0 {
			lpMax = 1
		}
		for _, workers := range []int{1, 3} {
			for _, fractional := range []bool{true, false} {
				opts := func() Options {
					return Options{Fractional: fractional, Workers: workers, BestEffort: island,
						LPMaxVars: lpMax, Rng: rand.New(rand.NewSource(int64(trial)))}
				}
				var ships, refShips atomic.Int64
				got, err := Route(countShips(context.Background(), &ships), s, pl, opts())
				want, refErr := refRoute(countShips(context.Background(), &refShips), s, pl, opts())
				if (err == nil) != (refErr == nil) {
					t.Fatalf("trial %d workers %d fractional %v: error %v, reference %v", trial, workers, fractional, err, refErr)
				}
				if err != nil {
					continue
				}
				if d := sameResult(got, want); d != "" {
					t.Fatalf("trial %d workers %d fractional %v: %s", trial, workers, fractional, d)
				}
				methods[got.Method]++
				if got.Unserved != nil {
					unserved++
				}
				switch n, ref := ships.Load(), refShips.Load(); {
				case n > ref, got.Method == MethodIndependent && n != ref:
					t.Fatalf("trial %d workers %d: %d min-cost flows, reference %d (%s)", trial, workers, n, ref, got.Method)
				case n < ref:
					saved++
				}
			}
		}
	}
	t.Logf("methods %v, %d with unserved demand, %d with fewer flows", methods, unserved, saved)
	for _, m := range []string{MethodIndependent, MethodLP, MethodSequential} {
		if methods[m] == 0 {
			t.Errorf("no instance routed by the %s rung", m)
		}
	}
	if unserved == 0 || saved == 0 {
		t.Errorf("%d results with unserved demand and %d that saved flows, want both positive", unserved, saved)
	}
}

// refItemDemand is the map-keyed demand set the sorted sink list replaced.
// It aggregates one content item's requests: which nodes want it and at
// what rate.
type refItemDemand struct {
	item  int
	sinks map[graph.NodeID]float64
	// sorted lists the sink nodes ascending, computed once when the demand
	// set is built: the per-item flow loop and the path decomposition both
	// need a deterministic sink order.
	sorted []graph.NodeID
	total  float64
}

// refRoute is Route as it was before the independent rung stopped at the
// first overflow and before the demand sets became sorted lists; it is the
// oracle of TestRouteMatchesReference.
func refRoute(ctx context.Context, s *placement.Spec, pl *placement.Placement, opts Options) (*Result, error) {
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
	var active []refItemDemand
	var groups [][]graph.NodeID
	unserved := map[placement.Request]float64{}
	for _, ad := range refDemandSets(s) {
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
	flows, method, err := refSplittableFlows(ctx, aux, active, opts)
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
		// The map-keyed decomposition is flow.Decompose on the ascending
		// list (TestDecomposeMatchesReference in internal/flow).
		pfs, err := flow.Decompose(aux.G, flows[k], vs, ad.sinkDemands())
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

// refSplittableFlows computes per-item arc flows (indexed like aux.G arcs)
// satisfying each item's demands, minimizing total cost within shared real
// link capacities when possible.
func refSplittableFlows(ctx context.Context, aux *graph.Auxiliary, active []refItemDemand, opts Options) ([][]float64, string, error) {
	g := aux.G
	// 1. Independent per-item min-cost flows, each respecting the link
	// capacities on its own. The items are independent here — each one
	// routes on its own residual network over the shared, read-only
	// auxiliary graph — so they fan out on the bounded pool; flows[k] is written only by item k's worker and
	// the aggregation below runs sequentially in item order.
	flows := make([][]float64, len(active))
	if err := par.Do(ctx, opts.Workers, len(active), func(k int) error {
		f, err := refItemMinCostFlow(ctx, aux, k, active[k], nil, false)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return err
			}
			// Even this single item exceeds some capacity: route it
			// capacity-obliviously; the congestion check below will
			// send us to the coupled solvers.
			f, err = refItemMinCostFlow(ctx, aux, k, active[k], nil, true)
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
		lpFlows, err := refMulticommodityLP(ctx, aux, active)
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
		f, err := refItemMinCostFlow(ctx, aux, k, active[k], residual, false)
		if err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, "", err
			}
			// No room left: route capacity-obliviously and absorb
			// the congestion (measured by the caller).
			f, err = refItemMinCostFlow(ctx, aux, k, active[k], nil, true)
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

// refDemandSets returns the per-item demand sets of s: every item with
// positive total rate, its sink map, its sinks in ascending node order and
// its total.
func refDemandSets(s *placement.Spec) []refItemDemand {
	var out []refItemDemand
	for i := 0; i < s.NumItems; i++ {
		ad := refItemDemand{item: i, sinks: map[graph.NodeID]float64{}}
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
// is precomputed when the demand set is built (see refItemDemand.sorted);
// this runs once per item per solve and must not re-sort.
func (ad *refItemDemand) sinkDemands() []flow.Demand {
	out := make([]flow.Demand, len(ad.sorted))
	for j, t := range ad.sorted {
		out[j] = flow.Demand{Node: t, Amount: ad.sinks[t]}
	}
	return out
}

// refItemMinCostFlow routes one item's demands from its virtual source via a
// super-sink min-cost flow on a copy of the auxiliary graph
// (cloneItemMinCostFlow), whose residual network is the fresh per-item
// network routing built before the overlay. residual, if non-nil,
// overrides the capacities of the real arcs; unlimited ignores capacities
// entirely (the capacity-oblivious last resort, whose congestion the
// caller measures).
func refItemMinCostFlow(ctx context.Context, aux *graph.Auxiliary, k int, ad refItemDemand, residual []float64, unlimited bool) ([]float64, error) {
	if ctx != nil {
		if observe, ok := ctx.Value(shipObserverKey{}).(func()); ok {
			observe()
		}
	}
	return cloneItemMinCostFlow(ctx, aux, k, ad.sinkDemands(), residual, unlimited)
}

// refMulticommodityLP solves the coupled MMSFP exactly: one flow variable per
// (item, arc), per-item conservation, shared capacity on real arcs.
func refMulticommodityLP(ctx context.Context, aux *graph.Auxiliary, active []refItemDemand) ([][]float64, error) {
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
