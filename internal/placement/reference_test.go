package placement

import (
	"context"
	"fmt"

	"jcr/internal/graph"
)

// The reference implementations below are the greedy and local-search
// passes as they stood before their marginal gains were made incremental:
// every gain is recomputed from scratch after every move. They are the
// oracles of the differential tests in incremental_test.go, which require
// the production passes to reproduce their output bit for bit.

// polishReference is polishPlacement recomputing every nearest-two scan
// and every gain on each query.
func polishReference(s *Spec, dist [][]float64, wmax float64, pl *Placement, nodes []graph.NodeID) {
	reqsByItem := make([][]Request, s.NumItems)
	for _, rq := range s.Requests() {
		reqsByItem[rq.Item] = append(reqsByItem[rq.Item], rq)
	}
	// nearestTwo returns the best and second-best replica distances for
	// request rq (wmax when absent).
	nearestTwo := func(rq Request) (d1, d2 float64, v1 graph.NodeID) {
		d1, d2 = wmax, wmax
		v1 = -1
		for v := range pl.Stores {
			if !pl.Stores[v][rq.Item] {
				continue
			}
			d := dist[v][rq.Node]
			if d < d1 {
				d2 = d1
				d1, v1 = d, v
			} else if d < d2 {
				d2 = d
			}
		}
		return d1, d2, v1
	}
	gainOf := func(v graph.NodeID, i int) float64 {
		var g float64
		for _, rq := range reqsByItem[i] {
			d1, _, _ := nearestTwo(rq)
			if d := dist[v][rq.Node]; d < d1 {
				g += s.Rates[i][rq.Node] * (d1 - d)
			}
		}
		return g
	}
	lossOf := func(v graph.NodeID, i int) float64 {
		var l float64
		for _, rq := range reqsByItem[i] {
			d1, d2, v1 := nearestTwo(rq)
			if v1 == v {
				l += s.Rates[i][rq.Node] * (d2 - d1)
			}
		}
		return l
	}
	const maxRounds = 5
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, v := range nodes {
			// Fill any slack with the best-gaining items.
			for {
				used := 0.0
				for i := 0; i < s.NumItems; i++ {
					if pl.Stores[v][i] {
						used++
					}
				}
				if used+1 > s.CacheCap[v]+capSlack {
					break
				}
				bestI, bestG := -1, gainEps
				for i := 0; i < s.NumItems; i++ {
					if pl.Stores[v][i] {
						continue
					}
					if g := gainOf(v, i); g > bestG {
						bestI, bestG = i, g
					}
				}
				if bestI < 0 {
					break
				}
				pl.Stores[v][bestI] = true
				improved = true
			}
			// Best single swap at v: distinct items' request sets are
			// disjoint, so net = gain(add) - loss(remove).
			bestIn, bestOut := -1, -1
			bestNet := swapGainEps
			for out := 0; out < s.NumItems; out++ {
				if !pl.Stores[v][out] {
					continue
				}
				loss := lossOf(v, out)
				for in := 0; in < s.NumItems; in++ {
					if pl.Stores[v][in] {
						continue
					}
					if net := gainOf(v, in) - loss; net > bestNet {
						bestNet, bestIn, bestOut = net, in, out
					}
				}
			}
			if bestIn >= 0 {
				pl.Stores[v][bestOut] = false
				pl.Stores[v][bestIn] = true
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}

// greedyReference is Greedy recomputing every marginal gain after every
// pick.
func greedyReference(s *Spec, dist [][]float64) (*GreedyResult, error) {
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

	for {
		bestV, bestI := -1, -1
		best := 0.0
		for _, v := range candidates {
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] || s.Size(i) > residual[v]+capSlack {
					continue
				}
				if d := delta(v, i); d > best {
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
	}
	src, cost := s.RNRSources(pl, dist)
	return &GreedyResult{Placement: pl, Sources: src, Cost: cost, Saving: saving}, nil
}

// perPathGreedyReference is placePerPathGreedy recomputing every marginal
// gain after every pick.
func perPathGreedyReference(ctx context.Context, s *Spec, paths []ServingPath) (*Placement, error) {
	pl := s.NewPlacement()
	g := s.G
	// Per item, the paths serving it, with cached-cut state.
	type pstate struct {
		sp     *ServingPath
		nodes  []graph.NodeID
		suffix []float64 // suffix[j] = cost of links from node j to the end
		cut    int
	}
	byItem := make([][]*pstate, s.NumItems)
	for k := range paths {
		sp := &paths[k]
		if sp.Rate <= 0 || sp.Path.Len() == 0 {
			continue
		}
		nodes := sp.Path.Nodes(g)
		suffix := make([]float64, len(nodes))
		for j := len(sp.Path.Arcs) - 1; j >= 0; j-- {
			suffix[j] = suffix[j+1] + g.Arc(sp.Path.Arcs[j]).Cost
		}
		st := &pstate{sp: sp, nodes: nodes, suffix: suffix, cut: 0}
		for j := len(nodes) - 1; j >= 1; j-- {
			if pl.Stores[nodes[j]][sp.Req.Item] {
				st.cut = j
				break
			}
		}
		byItem[sp.Req.Item] = append(byItem[sp.Req.Item], st)
	}
	residual := make([]float64, g.NumNodes())
	var candidates []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		residual[v] = s.CacheCap[v]
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			candidates = append(candidates, v)
		}
	}
	delta := func(v graph.NodeID, i int) float64 {
		var d float64
		for _, st := range byItem[i] {
			for j := len(st.nodes) - 1; j > st.cut; j-- {
				if st.nodes[j] == v {
					d += st.sp.Rate * (st.suffix[st.cut] - st.suffix[j])
					break
				}
			}
		}
		return d
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("placement: per-path greedy canceled: %w", err)
			}
		}
		bestV, bestI := -1, -1
		best := 0.0
		for _, v := range candidates {
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] || s.Size(i) > residual[v]+capSlack {
					continue
				}
				if d := delta(v, i); d > best {
					best, bestV, bestI = d, v, i
				}
			}
		}
		if bestV < 0 {
			break
		}
		pl.Stores[bestV][bestI] = true
		residual[bestV] -= s.Size(bestI)
		for _, st := range byItem[bestI] {
			for j := len(st.nodes) - 1; j > st.cut; j-- {
				if st.nodes[j] == bestV {
					st.cut = j
					break
				}
			}
		}
	}
	return pl, nil
}
