package placement

import "jcr/internal/graph"

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
	residual := make([]float64, s.G.NumNodes())
	var candidates []graph.NodeID
	for v := 0; v < s.G.NumNodes(); v++ {
		residual[v] = s.CacheCap[v]
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			candidates = append(candidates, v)
		}
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

	// gains[c][i] is delta(candidates[c], i). A pick lowers nearest only
	// for its own item's requests, so only that item's column changes.
	gains := make([][]float64, len(candidates))
	for c, v := range candidates {
		gains[c] = make([]float64, s.NumItems)
		for i := range gains[c] {
			gains[c][i] = delta(v, i)
		}
	}
	for {
		bestV, bestI := -1, -1
		best := 0.0
		for c, v := range candidates {
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] || s.Size(i) > residual[v]+capSlack {
					continue
				}
				if d := gains[c][i]; d > best {
					best, bestV, bestI = d, v, i
				}
			}
		}
		if bestV < 0 {
			break
		}
		pl.Stores[bestV][bestI] = true
		residual[bestV] -= s.Size(bestI)
		saving += best
		for _, rq := range reqsByItem[bestI] {
			if dd := dist[bestV][rq.Node]; dd < nearest[rq] {
				nearest[rq] = dd
			}
		}
		for c, v := range candidates {
			gains[c][bestI] = delta(v, bestI)
		}
	}
	src, cost := s.RNRSources(pl, dist)
	return &GreedyResult{Placement: pl, Sources: src, Cost: cost, Saving: saving}, nil
}
