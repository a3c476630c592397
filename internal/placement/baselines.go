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
		for j := servedFrom(g, sp.Path, sp.Req.Item, pl); j < len(sp.Path.Arcs); j++ {
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

// servedFrom returns the position, in p.Nodes order, of the node nearest
// the requester that stores item under pl, or 0 when none does: the path
// is paid from that node on. It walks the arcs rather than materializing
// the node list, as it runs for every path of every evaluation.
func servedFrom(g *graph.Graph, p graph.Path, item int, pl *Placement) int {
	for j := len(p.Arcs); j >= 1; j-- {
		if pl.Stores[g.Arc(p.Arcs[j-1]).To][item] {
			return j
		}
	}
	return 0
}

// ShortestServingPaths builds one serving path per request: the least-cost
// path from the given root (typically the origin server) to the requester.
// This is the fixed routing of the [38] baseline ("shortest path") and of
// the "SP" benchmarks in Figs. 7-8. Requesters the root cannot reach get
// no path.
func ShortestServingPaths(s *Spec, root graph.NodeID) []ServingPath {
	tree := graph.TreeOf(s.G, root)
	var out []ServingPath
	for _, rq := range s.Requests() {
		if p, ok := tree.PathTo(s.G, rq.Node); ok {
			out = append(out, ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]})
		}
	}
	return out
}

// SP38 runs the [38] baseline: place content to maximize the per-path
// saving along the origin's shortest-path tree, then serve each request
// along that path from the nearest on-path replica. Like the original
// algorithm, it assumes equal-size items: under heterogeneous sizes it
// fills equal-size slots (see equalSize) and may exceed byte capacities
// (the infeasibility the paper demonstrates in Fig. 5). ctx reaches the
// per-path placement solve; nil means no cancellation.
func SP38(ctx context.Context, s *Spec, origin graph.NodeID) (*Placement, []ServingPath, error) {
	paths := ShortestServingPaths(s, origin)
	pl, err := PlacePerPath(ctx, equalSize(s), paths, PerPathOptions{})
	if err != nil {
		return nil, nil, err
	}
	return pl, paths, nil
}

// equalSize returns the spec as the equal-size baselines of [3] and [38]
// see it. Under heterogeneous sizes every item becomes one slot and cache v
// holds floor(CacheCap[v] / mean item size + capSlack) slots: a cache sized
// for zeta average files holds zeta items, whatever their bytes. capSlack
// absorbs the residue of zeta*mean/mean, which is not always exactly zeta.
// A homogeneous spec is returned as is.
func equalSize(s *Spec) *Spec {
	if len(s.ItemSize) == 0 {
		return s
	}
	var mean float64
	for _, size := range s.ItemSize {
		mean += size
	}
	mean /= float64(len(s.ItemSize))
	clone := *s
	clone.ItemSize = nil
	clone.CacheCap = make([]float64, len(s.CacheCap))
	for v, c := range s.CacheCap {
		clone.CacheCap[v] = math.Floor(c/mean + capSlack)
	}
	return &clone
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
// DESIGN.md). Like [3], it treats items as equal-size slots (see
// equalSize), which makes it cache-infeasible under heterogeneous sizes
// (Fig. 5).
func KSP3(s *Spec, origin graph.NodeID, k int) (*KSPResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("placement: k must be positive, got %d", k)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.G
	candByNode, reqs := candidatePaths(s, s.Requests(), origin, k)
	pl := s.NewPlacement()
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
			// Walk from the requester backwards accumulating cost. The
			// requester ends every candidate (at the origin itself the
			// one candidate is empty and has no node list).
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
		_, bestCost[ri] = bestCandidate(s, pl, candByNode[rq.Node], rq.Item)
		reqsByItem[rq.Item] = append(reqsByItem[rq.Item], ri)
	}
	// Greedy over (node, item) additions on the joint objective
	// sum_rq lambda * (baseline - min over candidate paths of cost), in
	// equal-size slots: each pick takes one slot.
	gain := func(v graph.NodeID, i int) float64 {
		var d float64
		for _, ri := range reqsByItem[i] {
			rq := reqs[ri]
			if c := suffixMin[rq.Node][v]; c < bestCost[ri] {
				d += s.Rates[i][rq.Node] * (bestCost[ri] - c)
			}
		}
		return d
	}
	err := greedyFill(nil, equalSize(s), pl, gain, func(v graph.NodeID, i int, _ float64) {
		for _, ri := range reqsByItem[i] {
			if c := suffixMin[reqs[ri].Node][v]; c < bestCost[ri] {
				bestCost[ri] = c
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// Final routing: each request picks its best candidate path.
	return &KSPResult{Placement: pl, Chosen: bestServingPaths(s, pl, reqs, candByNode)}, nil
}

// candidatePaths returns each requester's k least-cost paths from the
// origin (the candidate routes of [3], shared across items) and the
// requests among reqs that have one: a requester the origin cannot reach
// has no candidates, and its requests are left out.
func candidatePaths(s *Spec, reqs []Request, origin graph.NodeID, k int) (map[graph.NodeID][]graph.Path, []Request) {
	candByNode := map[graph.NodeID][]graph.Path{}
	var reachable []Request
	for _, rq := range reqs {
		cands, done := candByNode[rq.Node]
		if !done {
			cands = graph.KShortestPaths(s.G, origin, rq.Node, k)
			candByNode[rq.Node] = cands
		}
		if len(cands) > 0 {
			reachable = append(reachable, rq)
		}
	}
	return candByNode, reachable
}

// bestCandidate returns the candidate path with the least serving cost of
// the item under pl (the first on ties) and that cost: the cost of the
// path from its servedFrom cut on.
func bestCandidate(s *Spec, pl *Placement, cands []graph.Path, item int) (graph.Path, float64) {
	bi, bc := 0, math.Inf(1)
	for pi, p := range cands {
		var c float64
		for _, id := range p.Arcs[servedFrom(s.G, p, item, pl):] {
			c += s.G.Arc(id).Cost
		}
		if c < bc {
			bc, bi = c, pi
		}
	}
	return cands[bi], bc
}

// bestServingPaths routes each request on its best candidate under pl.
func bestServingPaths(s *Spec, pl *Placement, reqs []Request, candByNode map[graph.NodeID][]graph.Path) []ServingPath {
	out := make([]ServingPath, len(reqs))
	for ri, rq := range reqs {
		p, _ := bestCandidate(s, pl, candByNode[rq.Node], rq.Item)
		out[ri] = ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]}
	}
	return out
}

// KSPServingPaths recomputes, for every request of the spec, the best of
// the k least-cost origin->requester candidate paths under the given
// placement (the [3] routing rule); requesters the origin cannot reach get
// no path. Used to evaluate a decided placement against the true demand,
// whose request set may differ from the decision demand's.
func KSPServingPaths(s *Spec, pl *Placement, origin graph.NodeID, k int) []ServingPath {
	candByNode, reqs := candidatePaths(s, s.Requests(), origin, k)
	return bestServingPaths(s, pl, reqs, candByNode)
}
