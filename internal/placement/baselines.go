package placement

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
)

// EvaluateServing measures the cost and link loads actually incurred when
// each serving path delivers its request from the cached node nearest the
// requester along the path (or from the path head if nothing on the path
// caches the item). It returns the total cost, per-arc loads, and the
// maximum load-to-capacity ratio (the congestion metric of Figs. 6-8).
func EvaluateServing(s *Spec, paths []ServingPath, pl *Placement) (cost float64, loads []float64, maxUtil float64) {
	g := s.G
	loads = make([]float64, g.NumArcs())
	for k := range paths {
		sp := &paths[k]
		for j := servedFrom(g, sp, pl); j < len(sp.Path.Arcs); j++ {
			id := sp.Path.Arcs[j]
			loads[id] += sp.Rate
			cost += sp.Rate * g.Arc(id).Cost
		}
	}
	for id, load := range loads {
		c := g.Arc(id).Cap
		if math.IsInf(c, 1) || c <= 0 {
			continue
		}
		if u := load / c; u > maxUtil {
			maxUtil = u
		}
	}
	return cost, loads, maxUtil
}

// servedFrom returns the position, in sp.Path.Nodes order, of the node
// nearest the requester that stores the requested item under pl, or 0 when
// none does: the path is paid from that node on. It walks the arcs rather
// than materializing the node list, as it runs for every path of every
// evaluation.
func servedFrom(g *graph.Graph, sp *ServingPath, pl *Placement) int {
	arcs := sp.Path.Arcs
	for j := len(arcs); j >= 1; j-- {
		if pl.Stores[g.Arc(arcs[j-1]).To][sp.Req.Item] {
			return j
		}
	}
	return 0
}

// ShortestServingPaths builds one serving path per request: the least-cost
// path from the given root (typically the origin server) to the requester.
// This is the fixed routing of the [38] baseline ("shortest path") and of
// the "SP" benchmarks in Figs. 7-8.
func ShortestServingPaths(s *Spec, root graph.NodeID) ([]ServingPath, error) {
	tree := graph.TreeOf(s.G, root)
	var out []ServingPath
	for _, rq := range s.Requests() {
		p, ok := tree.PathTo(s.G, rq.Node)
		if !ok {
			return nil, fmt.Errorf("placement: requester %d unreachable from root %d", rq.Node, root)
		}
		out = append(out, ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]})
	}
	return out, nil
}

// SP38 runs the [38] baseline: place content to maximize the per-path
// saving along the origin's shortest-path tree, then serve each request
// along that path from the nearest on-path replica. Like the original
// algorithm, it assumes equal-size items: under heterogeneous sizes it
// fills slotCap slots per cache and may exceed byte capacities (the
// infeasibility the paper demonstrates in Fig. 5). Pass slotCap nil for the
// homogeneous model. ctx reaches the per-path placement solve; nil means
// no cancellation.
func SP38(ctx context.Context, s *Spec, origin graph.NodeID, slotCap []float64) (*Placement, []ServingPath, error) {
	paths, err := ShortestServingPaths(s, origin)
	if err != nil {
		return nil, nil, err
	}
	spec := s
	if s.ItemSize != nil {
		clone := *s
		clone.ItemSize = nil
		if slotCap == nil {
			return nil, nil, fmt.Errorf("placement: SP38 with heterogeneous sizes needs slotCap")
		}
		clone.CacheCap = slotCap
		spec = &clone
	}
	pl, err := PlacePerPath(ctx, spec, paths, PerPathOptions{})
	if err != nil {
		return nil, nil, err
	}
	return pl, paths, nil
}

// KSPResult is the output of the [3]-style joint optimization over k
// candidate shortest paths.
type KSPResult struct {
	Placement *Placement
	// Chosen[k] is each request's selected candidate path (a response
	// path from the origin; the replica cut is applied at evaluation).
	Chosen []ServingPath
}

// KSP3 implements the joint caching-and-routing baseline of Ioannidis &
// Yeh [3]: the candidate routes for each request are the k least-cost
// paths from the origin server to the requester, content placement
// maximizes the saving assuming each request uses its best candidate path,
// and each request is finally routed on the candidate path that minimizes
// its actual cost under the rounded placement (serving from the nearest
// on-path replica).
//
// Faithfulness note: the original uses an LP relaxation with pipage
// rounding over per-path variables; at the evaluation's scale that LP has
// tens of thousands of rows, so this implementation uses the standard
// greedy for the same submodular-style objective (documented in
// DESIGN.md). Like [3], it treats items as equal-size slots, which makes
// it cache-infeasible under heterogeneous sizes (Fig. 5).
func KSP3(s *Spec, origin graph.NodeID, k int, slotCap []float64) (*KSPResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("placement: k must be positive, got %d", k)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.G
	// Candidate paths per requester node (shared across items).
	candByNode := map[graph.NodeID][]graph.Path{}
	reqs := s.Requests()
	for _, rq := range reqs {
		if _, done := candByNode[rq.Node]; done {
			continue
		}
		cands := graph.KShortestPaths(g, origin, rq.Node, k)
		if len(cands) == 0 {
			return nil, fmt.Errorf("placement: requester %d unreachable from origin %d", rq.Node, origin)
		}
		candByNode[rq.Node] = cands
	}
	caps := s.CacheCap
	if s.ItemSize != nil {
		if slotCap == nil {
			return nil, fmt.Errorf("placement: KSP3 with heterogeneous sizes needs slotCap")
		}
		caps = slotCap
	}
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
			sm[nodes[len(nodes)-1]] = 0
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
		bestCost[ri] = requestBestCost(s, pl, candByNode[rq.Node], rq.Item)
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
	chosen := make([]ServingPath, len(reqs))
	for ri, rq := range reqs {
		bi, bc := 0, math.Inf(1)
		for pi, p := range candByNode[rq.Node] {
			if c := servingCostOnPath(s, pl, p, rq.Item); c < bc {
				bc, bi = c, pi
			}
		}
		chosen[ri] = ServingPath{Req: rq, Path: candByNode[rq.Node][bi], Rate: s.Rates[rq.Item][rq.Node]}
	}
	return &KSPResult{Placement: pl, Chosen: chosen}, nil
}

// requestBestCost is the min over candidate paths of the serving cost.
func requestBestCost(s *Spec, pl *Placement, cands []graph.Path, item int) float64 {
	best := math.Inf(1)
	for _, p := range cands {
		if c := servingCostOnPath(s, pl, p, item); c < best {
			best = c
		}
	}
	return best
}

// servingCostOnPath is the cost of the path suffix from the cached node
// nearest the requester (the path head — origin — always stores).
func servingCostOnPath(s *Spec, pl *Placement, p graph.Path, item int) float64 {
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

// KSPServingPaths recomputes, for every request of the spec, the best of
// the k least-cost origin->requester candidate paths under the given
// placement (the [3] routing rule). Used to evaluate a decided placement
// against the true demand, whose request set may differ from the decision
// demand's.
func KSPServingPaths(s *Spec, pl *Placement, origin graph.NodeID, k int) ([]ServingPath, error) {
	candByNode := map[graph.NodeID][]graph.Path{}
	var out []ServingPath
	for _, rq := range s.Requests() {
		cands, ok := candByNode[rq.Node]
		if !ok {
			cands = graph.KShortestPaths(s.G, origin, rq.Node, k)
			if len(cands) == 0 {
				return nil, fmt.Errorf("placement: requester %d unreachable from origin %d", rq.Node, origin)
			}
			candByNode[rq.Node] = cands
		}
		bi, bc := 0, math.Inf(1)
		for pi, p := range cands {
			if c := servingCostOnPath(s, pl, p, rq.Item); c < bc {
				bc, bi = c, pi
			}
		}
		out = append(out, ServingPath{Req: rq, Path: cands[bi], Rate: s.Rates[rq.Item][rq.Node]})
	}
	return out, nil
}

// GlobalRNRServing turns a placement into serving paths by routing each
// request from its nearest replica over that replica's least-cost path,
// capacity-oblivious: the "RNR" routing used by the "SP + RNR" benchmark.
func GlobalRNRServing(s *Spec, pl *Placement, dist [][]float64) ([]ServingPath, error) {
	srcs, _, err := s.RNRSources(pl, dist)
	if err != nil {
		return nil, err
	}
	trees := map[graph.NodeID]graph.ShortestTree{}
	var out []ServingPath
	for _, rq := range s.Requests() {
		v := srcs[rq]
		tree, ok := trees[v]
		if !ok {
			tree = graph.TreeOf(s.G, v)
			trees[v] = tree
		}
		p, ok := tree.PathTo(s.G, rq.Node)
		if !ok {
			return nil, fmt.Errorf("placement: requester %d unreachable from replica %d", rq.Node, v)
		}
		out = append(out, ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]})
	}
	return out, nil
}
