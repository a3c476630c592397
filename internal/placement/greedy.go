package placement

import (
	"context"

	"jcr/internal/graph"
)

// GreedyResult carries the greedy placement's outputs.
type GreedyResult struct {
	Placement *Placement
	Sources   map[Request]graph.NodeID
	Cost      float64
	// Saving is the achieved value of the RNR cost-saving objective.
	Saving float64
}

// Greedy runs the greedy submodular placement for the route-to-nearest-
// replica setting: iteratively cache the (node, item) pair with the largest
// marginal cost saving until no pair fits. Under homogeneous sizes the
// cache constraints form a matroid and the greedy achieves 1/2 of the
// optimal saving [29]; under heterogeneous sizes they form a
// p-independence system with p = ceil(bmax/bmin) and the greedy achieves
// 1/(1+p) (Theorem 5.2).
func Greedy(s *Spec, dist [][]float64) (*GreedyResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	wmax := graph.MaxFinite(dist)
	pl := s.NewPlacement()
	reqs := s.Requests()

	// nearest[rq] is the current least cost of serving request rq; the
	// pinned nodes define the baseline.
	reqsByItem := make([][]Request, s.NumItems)
	nearest := make(map[Request]float64, len(reqs))
	var saving float64 // starts at the pinned nodes' baseline saving
	for _, rq := range reqs {
		d := wmax
		for _, v := range s.Pinned {
			if dd := dist[v][rq.Node]; dd < d {
				d = dd
			}
		}
		nearest[rq] = d
		saving += s.Rates[rq.Item][rq.Node] * (wmax - d)
		reqsByItem[rq.Item] = append(reqsByItem[rq.Item], rq)
	}
	delta := func(v graph.NodeID, i int) float64 {
		var d float64
		for _, rq := range reqsByItem[i] {
			if dd := dist[v][rq.Node]; dd < nearest[rq] {
				d += s.Rates[i][rq.Node] * (nearest[rq] - dd)
			}
		}
		return d
	}
	err := greedyFill(nil, s, pl, delta, func(v graph.NodeID, i int, gain float64) {
		saving += gain
		for _, rq := range reqsByItem[i] {
			if dd := dist[v][rq.Node]; dd < nearest[rq] {
				nearest[rq] = dd
			}
		}
	})
	if err != nil {
		return nil, err
	}
	src, cost := s.RNRSources(pl, dist)
	return &GreedyResult{Placement: pl, Sources: src, Cost: cost, Saving: saving}, nil
}

// greedyFill is the greedy loop shared by Greedy, placePerPathGreedy and
// KSP3: starting from pl, it caches the (node, item) pair with the largest
// positive marginal gain that fits the residual capacity, ties going to
// the first pair in (node, item) order, until no pair fits or gains. The
// candidates are the unpinned nodes with positive capacity.
//
// gain(v, i) is the marginal saving of caching item i at node v under the
// caller's state, and picked(v, i, g) moves that state after pl has
// stored the pick; a pick may change the gains of its own item only (the
// requests of distinct items are disjoint), so only that item's column of
// the gain table is recomputed. ctx, when non-nil, is polled before every
// pick; its error is returned as is.
func greedyFill(ctx context.Context, s *Spec, pl *Placement, gain func(v graph.NodeID, i int) float64, picked func(v graph.NodeID, i int, g float64)) error {
	residual := make([]float64, s.G.NumNodes())
	var candidates []graph.NodeID
	for v := range residual {
		residual[v] = s.CacheCap[v]
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			candidates = append(candidates, v)
		}
	}
	// gains[c*n+i] is gain(candidates[c], i).
	n := s.NumItems
	gains := make([]float64, len(candidates)*n)
	for c, v := range candidates {
		for i := 0; i < n; i++ {
			gains[c*n+i] = gain(v, i)
		}
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		bestV, bestI := -1, -1
		best := 0.0
		for c, v := range candidates {
			stores, room := pl.Stores[v], residual[v]+capSlack
			for i, d := range gains[c*n : c*n+n] {
				if stores[i] || s.Size(i) > room {
					continue
				}
				if d > best {
					best, bestV, bestI = d, v, i
				}
			}
		}
		if bestV < 0 {
			return nil
		}
		pl.Stores[bestV][bestI] = true
		residual[bestV] -= s.Size(bestI)
		picked(bestV, bestI, best)
		for c, v := range candidates {
			gains[c*n+bestI] = gain(v, bestI)
		}
	}
}
