// Package check provides runtime invariant validators for solver outputs:
// every placement and routing solution the algorithms emit can be verified
// against the feasibility constraints of the paper's Eq. (1) — cache
// capacities (1f), flow conservation and full service (1b-1c), link
// capacities (1d) — and against an independent recomputation of its
// reported cost. The solver test suites (core, placement, msufp, flow,
// exact) call these validators on every run, so a regression that produces
// an infeasible or mispriced solution fails loudly instead of skewing
// reproduced figures.
package check

import (
	"fmt"
	"math"
	"sort"

	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/placement"
)

// Validation tolerances, named in one place so they are auditable
// (enforced by jcrlint tol-literal).
const (
	// CapSlack absorbs floating-point residue when comparing cache
	// occupancy or link load against a capacity (Eqs. 1d and 1f).
	CapSlack = 1e-9
	// RateTol is the relative tolerance on a request's total served rate
	// versus its demand (Eq. 1b-1c full-service check).
	RateTol = 1e-6
	// CostTol is the relative tolerance when comparing a reported cost
	// against its independent recomputation.
	CostTol = 1e-6
	// FlowTol is the relative tolerance (scaled by total demand) for
	// per-node flow-conservation residues in arc-flow solutions.
	FlowTol = 1e-6
)

// Placement verifies that pl is a feasible caching decision for s: the
// stores matrix has the spec's dimensions, every pinned node stores the
// whole catalog, and every non-pinned node's occupancy respects its cache
// capacity (Eq. 1f).
func Placement(s *placement.Spec, pl *placement.Placement) error {
	n := s.G.NumNodes()
	if len(pl.Stores) != n {
		return fmt.Errorf("check: placement covers %d nodes, spec has %d", len(pl.Stores), n)
	}
	for v, row := range pl.Stores {
		if len(row) != s.NumItems {
			return fmt.Errorf("check: node %d stores %d item slots, catalog has %d", v, len(row), s.NumItems)
		}
	}
	for _, v := range s.Pinned {
		for i := 0; i < s.NumItems; i++ {
			if !pl.Stores[v][i] {
				return fmt.Errorf("check: pinned node %d does not store item %d", v, i)
			}
		}
	}
	for v := range pl.Stores {
		if s.IsPinned(v) {
			continue
		}
		if used := s.Occupancy(pl, v); used > s.CacheCap[v]+CapSlack {
			return fmt.Errorf("check: node %d occupancy %.9g exceeds capacity %.9g (Eq. 1f)", v, used, s.CacheCap[v])
		}
	}
	return nil
}

// Flow verifies that the serving paths are a feasible routing of s's
// demands under pl: every path is a contiguous cycle-free walk ending at
// its requester, originates the response at a node that stores the item,
// serves each request's full demand (Eq. 1b-1c), and — unless
// allowCongestion — keeps every link load within its capacity (Eq. 1d).
// Rates must be non-negative, and no path may serve a zero-demand request.
func Flow(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, allowCongestion bool) error {
	return PartialFlow(s, pl, paths, nil, allowCongestion)
}

// PartialFlow is Flow for degraded operation: requests listed in unserved
// are exempt from the full-service check (Eq. 1b-1c) as long as their
// served rate plus declared unserved rate covers the demand. A nil or
// empty unserved map makes it identical to Flow. Used to validate
// best-effort routings on networks with failed links, where some demand is
// legitimately unservable and must be declared rather than silently
// dropped.
func PartialFlow(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, unserved map[placement.Request]float64, allowCongestion bool) error {
	if err := Placement(s, pl); err != nil {
		return err
	}
	n := s.G.NumNodes()
	// The rates index served below, so their shape is checked first.
	if len(s.Rates) != s.NumItems {
		return fmt.Errorf("check: spec has %d rate rows for %d items", len(s.Rates), s.NumItems)
	}
	for i, row := range s.Rates {
		if len(row) != n {
			return fmt.Errorf("check: rate row %d has %d entries for %d nodes", i, len(row), n)
		}
	}
	// served[i*n+v] is the rate the paths serve request (i, v), summed in
	// path order.
	served := make([]float64, s.NumItems*n)
	for k := range paths {
		sp := &paths[k]
		rq := sp.Req
		if rq.Item < 0 || rq.Item >= s.NumItems || rq.Node < 0 || rq.Node >= n {
			return fmt.Errorf("check: serving path %d references request (%d,%d) out of range", k, rq.Item, rq.Node)
		}
		if sp.Rate < 0 || math.IsNaN(sp.Rate) {
			return fmt.Errorf("check: serving path %d has invalid rate %v", k, sp.Rate)
		}
		if arcs := sp.Path.Arcs; len(arcs) == 0 {
			// Local hit: the requester itself must store the item.
			if !pl.Stores[rq.Node][rq.Item] {
				return fmt.Errorf("check: empty path for request (%d,%d) but requester stores no replica", rq.Item, rq.Node)
			}
		} else {
			if err := sp.Path.Validate(s.G, sp.Path.Source(s.G), rq.Node); err != nil {
				return fmt.Errorf("check: serving path %d for request (%d,%d): %w", k, rq.Item, rq.Node, err)
			}
			// The path's nodes are its first tail and then every head.
			stored := pl.Stores[s.G.Arc(arcs[0]).From][rq.Item]
			for _, id := range arcs {
				if stored {
					break
				}
				stored = pl.Stores[s.G.Arc(id).To][rq.Item]
			}
			if !stored {
				return fmt.Errorf("check: serving path %d for request (%d,%d) touches no replica", k, rq.Item, rq.Node)
			}
		}
		served[rq.Item*n+rq.Node] += sp.Rate
	}
	// Full service: each positive-rate request is served at its demand
	// (Eq. 1b aggregated over the request's paths), with declared unserved
	// rate counted toward the demand under degraded operation. Requests
	// are visited by item, then node.
	for i, row := range s.Rates {
		for v, want := range row {
			if !(want > 0) { // s.Requests' test, so a NaN rate is no request
				continue
			}
			got := served[i*n+v]
			if u, ok := unserved[placement.Request{Item: i, Node: v}]; ok {
				if u < 0 || math.IsNaN(u) {
					return fmt.Errorf("check: request (%d,%d) declares invalid unserved rate %v", i, v, u)
				}
				got += u
			}
			if math.Abs(got-want) > RateTol*(1+want) {
				return fmt.Errorf("check: request (%d,%d) served at rate %.9g, demand %.9g", i, v, got, want)
			}
		}
	}
	// Iterate sorted so the reported witness (there may be several bad
	// entries) is the same on every run.
	for _, rq := range sortedRequests(unserved) {
		u := unserved[rq]
		if rq.Item < 0 || rq.Item >= s.NumItems || rq.Node < 0 || rq.Node >= n {
			return fmt.Errorf("check: unserved entry references request (%d,%d) out of range", rq.Item, rq.Node)
		}
		if s.Rates[rq.Item][rq.Node] <= 0 && u > RateTol {
			return fmt.Errorf("check: request (%d,%d) declares unserved rate %.9g but has no demand", rq.Item, rq.Node, u)
		}
	}
	// Served requests without demand, by item, then node.
	for i := 0; i < s.NumItems; i++ {
		for v := 0; v < n; v++ {
			if got := served[i*n+v]; got > RateTol && !(s.Rates[i][v] > 0) {
				return fmt.Errorf("check: request (%d,%d) served at rate %.9g but has no demand", i, v, got)
			}
		}
	}
	if !allowCongestion {
		_, loads, _ := placement.EvaluateServing(s, paths, pl)
		for id, load := range loads {
			c := s.G.Arc(id).Cap
			if math.IsInf(c, 1) || c <= 0 {
				continue
			}
			if load > c*(1+CapSlack)+CapSlack {
				return fmt.Errorf("check: arc %d load %.9g exceeds capacity %.9g (Eq. 1d)", id, load, c)
			}
		}
	}
	return nil
}

// Solution verifies a complete solution: the placement is feasible, the
// serving paths are a feasible routing (congestion permitted, as in the
// paper's evaluation), and the reported cost matches an independent
// recomputation with placement.EvaluateServing semantics within CostTol.
func Solution(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, reportedCost float64) error {
	if err := Flow(s, pl, paths, true); err != nil {
		return err
	}
	cost, _, _ := placement.EvaluateServing(s, paths, pl)
	if math.Abs(cost-reportedCost) > CostTol*(1+math.Abs(cost)) {
		return fmt.Errorf("check: reported cost %.9g, recomputed %.9g", reportedCost, cost)
	}
	return nil
}

// ArcFlow verifies a single-source splittable arc flow: every arc flow is
// non-negative and within the arc's capacity (unless allowCongestion), and
// flow is conserved at every node — net outflow equals the total demand at
// the source, minus the demand at each sink, and zero elsewhere (Eq.
// 1b-1d in flow form). Conservation residues are tolerated up to FlowTol
// scaled by the total demand.
func ArcFlow(g *graph.Graph, arcFlow []float64, src graph.NodeID, demand map[graph.NodeID]float64, allowCongestion bool) error {
	if len(arcFlow) != g.NumArcs() {
		return fmt.Errorf("check: arc flow has %d entries for %d arcs", len(arcFlow), g.NumArcs())
	}
	// Sum in sorted node order: float addition is order-sensitive in the
	// last ulp, and map iteration order would make the tolerance itself
	// nondeterministic.
	var total float64
	for _, v := range sortedNodes(demand) {
		total += demand[v]
	}
	tol := FlowTol * (1 + total)
	for id, f := range arcFlow {
		if f < -tol || math.IsNaN(f) {
			return fmt.Errorf("check: arc %d carries invalid flow %.9g", id, f)
		}
		c := g.Arc(id).Cap
		if allowCongestion || math.IsInf(c, 1) || c <= 0 {
			continue
		}
		if f > c*(1+CapSlack)+tol {
			return fmt.Errorf("check: arc %d flow %.9g exceeds capacity %.9g (Eq. 1d)", id, f, c)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		want := -demand[v]
		if v == src {
			want += total
		}
		if net := flow.NetOutflow(g, arcFlow, v); math.Abs(net-want) > tol {
			return fmt.Errorf("check: node %d net outflow %.9g, want %.9g (Eq. 1b-1c)", v, net, want)
		}
	}
	return nil
}

// sortedRequests fixes a deterministic iteration order over a per-request
// map (by item, then node).
func sortedRequests(m map[placement.Request]float64) []placement.Request {
	out := make([]placement.Request, 0, len(m))
	for rq := range m {
		out = append(out, rq)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Item != out[j].Item {
			return out[i].Item < out[j].Item
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// sortedNodes fixes a deterministic iteration order over a per-node map.
func sortedNodes(m map[graph.NodeID]float64) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
