package placement

import (
	"context"
	"fmt"
	"math"
	"sort"

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

// kspReference is KSP3 recomputing every marginal gain after every pick,
// with the node-list serving cost it had before bestCandidate cut paths
// with servedFrom.
func kspReference(s *Spec, origin graph.NodeID, k int) (*KSPResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("placement: k must be positive, got %d", k)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.G
	candByNode, reqs := candidatePaths(s, s.Requests(), origin, k)
	caps := equalSize(s).CacheCap
	pl := s.NewPlacement()
	residual := make([]float64, g.NumNodes())
	var candidates []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		residual[v] = caps[v]
		if caps[v] > 0 && !s.IsPinned(v) {
			candidates = append(candidates, v)
		}
	}
	// Serving a request from a cached node v costs the static suffix of
	// some candidate path from v's position; with the current best cost
	// b, caching v yields min(b, suffixMin[node][v]). Precomputing the
	// per-(requester, node) suffix minimum makes each greedy evaluation
	// O(1) instead of a path scan.
	suffixMin := map[graph.NodeID][]float64{}
	requesters := make([]graph.NodeID, 0, len(candByNode))
	for node := range candByNode {
		requesters = append(requesters, node)
	}
	sort.Ints(requesters)
	for _, node := range requesters {
		cands := candByNode[node]
		sm := make([]float64, g.NumNodes())
		for v := range sm {
			sm[v] = math.Inf(1)
		}
		for _, p := range cands {
			nodes := p.Nodes(g)
			suffix := 0.0
			// Walk from the requester backwards accumulating cost.
			sm[node] = 0
			for j := len(p.Arcs) - 1; j >= 1; j-- {
				suffix += g.Arc(p.Arcs[j]).Cost
				if v := nodes[j]; suffix < sm[v] {
					sm[v] = suffix
				}
			}
		}
		suffixMin[node] = sm
	}
	// bestCost[rq] is the current min over candidate paths of the
	// actual serving cost under pl.
	bestCost := make([]float64, len(reqs))
	reqsByItem := make([][]int, s.NumItems)
	for ri, rq := range reqs {
		_, bestCost[ri] = bestCandidateReference(s, pl, candByNode[rq.Node], rq.Item)
		reqsByItem[rq.Item] = append(reqsByItem[rq.Item], ri)
	}
	// Greedy over (node, item) additions on the joint objective
	// sum_rq lambda * (baseline - min over candidate paths of cost).
	for {
		bestV, bestI := -1, -1
		bestGain := 0.0
		for _, v := range candidates {
			if residual[v] < 1-capSlack {
				continue
			}
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] {
					continue
				}
				var gainTotal float64
				for _, ri := range reqsByItem[i] {
					rq := reqs[ri]
					if c := suffixMin[rq.Node][v]; c < bestCost[ri] {
						gainTotal += s.Rates[i][rq.Node] * (bestCost[ri] - c)
					}
				}
				if gainTotal > bestGain {
					bestGain, bestV, bestI = gainTotal, v, i
				}
			}
		}
		if bestV < 0 {
			break
		}
		pl.Stores[bestV][bestI] = true
		residual[bestV]--
		for _, ri := range reqsByItem[bestI] {
			rq := reqs[ri]
			if c := suffixMin[rq.Node][bestV]; c < bestCost[ri] {
				bestCost[ri] = c
			}
		}
	}
	// Final routing: each request picks its best candidate path.
	return &KSPResult{Placement: pl, Chosen: bestServingPathsReference(s, pl, reqs, candByNode)}, nil
}

// bestCandidateReference is bestCandidate over servingCostReference.
func bestCandidateReference(s *Spec, pl *Placement, cands []graph.Path, item int) (graph.Path, float64) {
	bi, bc := 0, math.Inf(1)
	for pi, p := range cands {
		if c := servingCostReference(s, pl, p, item); c < bc {
			bc, bi = c, pi
		}
	}
	return cands[bi], bc
}

// bestServingPathsReference is bestServingPaths over
// bestCandidateReference.
func bestServingPathsReference(s *Spec, pl *Placement, reqs []Request, candByNode map[graph.NodeID][]graph.Path) []ServingPath {
	out := make([]ServingPath, len(reqs))
	for ri, rq := range reqs {
		p, _ := bestCandidateReference(s, pl, candByNode[rq.Node], rq.Item)
		out[ri] = ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]}
	}
	return out
}

// servingCostReference is the cost of the path suffix from the cached node
// nearest the requester (the path head — origin — always stores).
func servingCostReference(s *Spec, pl *Placement, p graph.Path, item int) float64 {
	g := s.G
	nodes := p.Nodes(g)
	if len(nodes) == 0 {
		return 0
	}
	cut := 0
	for j := len(nodes) - 1; j >= 1; j-- {
		if pl.Stores[nodes[j]][item] {
			cut = j
			break
		}
	}
	var c float64
	for j := cut; j < len(p.Arcs); j++ {
		c += g.Arc(p.Arcs[j]).Cost
	}
	return c
}
