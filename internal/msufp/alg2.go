package msufp

import (
	"context"
	"fmt"
	"sort"

	"jcr/internal/flow"
	"jcr/internal/graph"
)

// SolveAlg2 runs the paper's Algorithm 2: compute the optimal splittable
// flow, decompose it into per-commodity path flows, reduce each commodity
// to its rounded demand (Eq. 11) along its most expensive paths first,
// partition commodities into K classes (Eq. 12), and convert each class to
// an unsplittable flow with the Lemma 4.6 subroutine. The returned paths
// carry the original demands (Theorem 4.7).
//
// K=2 reproduces the state-of-the-art baseline of Skutella [33]; larger K
// trades a little extra work for markedly lower congestion. ctx reaches the
// splittable min-cost flow; nil means no cancellation.
func SolveAlg2(ctx context.Context, inst *Instance, k int) (*Assignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("msufp: K must be positive, got %d", k)
	}
	if len(inst.Commodities) == 0 {
		return nil, ErrNoCommodities
	}
	// Line 1: optimal splittable flow.
	split, err := inst.SplittableOptimum(ctx)
	if err != nil {
		return nil, err
	}
	// Line 2: path-level flow per commodity.
	perCommodity, err := decomposePerCommodity(inst, split.Arc)
	if err != nil {
		return nil, err
	}
	// Lines 3-4: reduce each commodity's flow to its rounded demand,
	// trimming the most expensive paths first.
	lambdaMax := 0.0
	for _, c := range inst.Commodities {
		if c.Demand > lambdaMax {
			lambdaMax = c.Demand
		}
	}
	if lambdaMax <= 0 {
		return nil, fmt.Errorf("msufp: all demands are zero")
	}
	for i := range perCommodity {
		target := RoundDemand(inst.Commodities[i].Demand, lambdaMax, k)
		reduceToTarget(inst.G, perCommodity[i], target)
	}
	// Line 5: partition into K classes.
	classes := make([][]int, k)
	for i, c := range inst.Commodities {
		j := ClassOf(c.Demand, lambdaMax, k)
		classes[j] = append(classes[j], i)
	}
	// Lines 6-7: per-class conversion via the Lemma 4.6 subroutine. The
	// classes share one residual-capacity vector so the load-aware path
	// extraction spreads each class's bounded excess instead of stacking
	// it on the same links (a choice Lemma 4.6 leaves free).
	asgn := &Assignment{Paths: make([]graph.Path, len(inst.Commodities))}
	residual := make([]float64, inst.G.NumArcs())
	for id := range residual {
		residual[id] = inst.G.Arc(id).Cap
	}
	for _, class := range classes {
		if len(class) == 0 {
			continue
		}
		arcFlow := make([]float64, inst.G.NumArcs())
		dests := make([]graph.NodeID, len(class))
		demands := make([]float64, len(class))
		for kk, i := range class {
			dests[kk] = inst.Commodities[i].Dest
			demands[kk] = RoundDemand(inst.Commodities[i].Demand, lambdaMax, k)
			for _, pf := range perCommodity[i] {
				for _, id := range pf.Path.Arcs {
					arcFlow[id] += pf.Amount
				}
			}
		}
		paths, err := UnsplittablePow2(inst.G, inst.Source, dests, demands, arcFlow, residual)
		if err != nil {
			return nil, err
		}
		for kk, i := range class {
			asgn.Paths[i] = paths[kk]
		}
	}
	return asgn, nil
}

// SolveRNR routes every commodity on its least-cost path, ignoring
// capacities: the route-to-nearest-replica baseline of [3] used in Fig. 6.
func SolveRNR(inst *Instance) (*Assignment, error) {
	tree := inst.Eng.Tree(inst.G, inst.Source)
	asgn := &Assignment{Paths: make([]graph.Path, len(inst.Commodities))}
	for i, c := range inst.Commodities {
		p, ok := tree.PathTo(inst.G, c.Dest)
		if !ok {
			return nil, fmt.Errorf("msufp: destination %d unreachable from source %d", c.Dest, inst.Source)
		}
		asgn.Paths[i] = p
	}
	return asgn, nil
}

// decomposePerCommodity converts the aggregate arc flow into path flows
// attributed to individual commodities. Commodities sharing a destination
// split that destination's path flows greedily (they are interchangeable).
func decomposePerCommodity(inst *Instance, arcFlow []float64) ([][]flow.PathFlow, error) {
	n := inst.G.NumNodes()
	// Per-destination demand is summed in commodity order, then handed to
	// the decomposition in ascending node order: Alg. 2's output moves on
	// the last bits of these totals.
	demand := make([]float64, n)
	byDest := make([][]int, n)
	for i, c := range inst.Commodities {
		demand[c.Dest] += c.Demand
		byDest[c.Dest] = append(byDest[c.Dest], i)
	}
	var sinks []flow.Demand
	for v, d := range demand {
		if len(byDest[v]) > 0 {
			sinks = append(sinks, flow.Demand{Node: v, Amount: d})
		}
	}
	paths, err := flow.Decompose(inst.G, arcFlow, inst.Source, sinks)
	if err != nil {
		return nil, fmt.Errorf("msufp: decompose splittable flow: %w", err)
	}
	byDestPaths := make([][]flow.PathFlow, n)
	for _, pf := range paths {
		byDestPaths[pf.Sink] = append(byDestPaths[pf.Sink], pf)
	}
	out := make([][]flow.PathFlow, len(inst.Commodities))
	// Destinations are processed in ascending order: the greedy split
	// consumes shared path flows with compound float arithmetic, and the
	// shortfall error picks a witness.
	for dest, ids := range byDest {
		avail := byDestPaths[dest]
		pi := 0
		for _, i := range ids {
			need := inst.Commodities[i].Demand
			tol := splitTolRel * (1 + need)
			for need > tol && pi < len(avail) {
				take := avail[pi].Amount
				if take > need {
					take = need
				}
				out[i] = append(out[i], flow.PathFlow{Path: avail[pi].Path, Amount: take, Sink: dest})
				avail[pi].Amount -= take
				need -= take
				if avail[pi].Amount <= tol {
					pi++
				}
			}
			if need > shortfallTolRel*(1+inst.Commodities[i].Demand) {
				return nil, fmt.Errorf("msufp: commodity %d short by %.6g after decomposition", i, need)
			}
		}
	}
	return out, nil
}

// reduceToTarget trims a commodity's path flows, most expensive paths
// first, until their total equals target (Algorithm 2, lines 3-4).
func reduceToTarget(g *graph.Graph, pfs []flow.PathFlow, target float64) {
	var total float64
	for _, pf := range pfs {
		total += pf.Amount
	}
	excess := total - target
	if excess <= 0 {
		return
	}
	sort.SliceStable(pfs, func(a, b int) bool {
		return pfs[a].Path.Cost(g) > pfs[b].Path.Cost(g)
	})
	for i := range pfs {
		if excess <= excessEps {
			break
		}
		cut := pfs[i].Amount
		if cut > excess {
			cut = excess
		}
		pfs[i].Amount -= cut
		excess -= cut
	}
}
