package placement

import (
	"math"

	"jcr/internal/graph"
)

// rateEps is the request rate below which a decided total is treated as
// zero: the decision did not anticipate the request.
const rateEps = 1e-12

// nearestReplica is the route-to-nearest-replica rule: the least-cost node
// storing rq's item under p, and its distance to the requester. Nodes are
// scanned in ascending ID with a strict <, so ties go to the smaller ID and
// an unreachable replica (infinite distance) is never chosen; -1 and +Inf
// when no replica reaches the requester.
func nearestReplica(p *Placement, dist [][]float64, rq Request) (graph.NodeID, float64) {
	best, bestD := -1, math.Inf(1)
	for v := range p.Stores {
		if p.Stores[v][rq.Item] && dist[v][rq.Node] < bestD {
			best, bestD = v, dist[v][rq.Node]
		}
	}
	return best, bestD
}

// RNRSources selects, for every request, the least-cost node storing the
// requested item (route-to-nearest-replica). dist must be the all-pairs
// least-cost matrix of s.G. The second return is the total routing cost
// sum lambda_(i,s) * w_{v*->s}. A request no replica reaches (on a
// partitioned network) has no source and adds no cost.
func (s *Spec) RNRSources(p *Placement, dist [][]float64) (map[Request]graph.NodeID, float64) {
	src := make(map[Request]graph.NodeID)
	var cost float64
	for _, rq := range s.Requests() {
		best, bestD := nearestReplica(p, dist, rq)
		if best < 0 {
			continue
		}
		src[rq] = best
		cost += s.Rates[rq.Item][rq.Node] * bestD
	}
	return src, cost
}

// SavingRNR evaluates the cost-saving set function F~_RNR of Eq. (4) up to
// an additive constant: sum over requests of lambda * (wmax - nearest
// replica distance), with wmax counted for items with no replica. It is
// monotone and submodular in the placement (Lemma 4.1).
func (s *Spec) SavingRNR(p *Placement, dist [][]float64, wmax float64) float64 {
	var saving float64
	for _, rq := range s.Requests() {
		_, d := nearestReplica(p, dist, rq)
		saving += s.Rates[rq.Item][rq.Node] * (wmax - math.Min(d, wmax))
	}
	return saving
}

// rnrRouter serves requests from their nearest replica under one
// placement, memoizing each replica's shortest-path tree for the call.
type rnrRouter struct {
	g     *graph.Graph
	pl    *Placement
	dist  [][]float64
	eng   *graph.Engine
	trees map[graph.NodeID]graph.ShortestTree
}

// route returns rq's path from its nearest replica (empty for a local hit,
// which computes no tree); ok is false when no replica reaches the
// requester.
func (r *rnrRouter) route(rq Request) (graph.Path, bool) {
	v, _ := nearestReplica(r.pl, r.dist, rq)
	if v < 0 {
		return graph.Path{}, false
	}
	if v == rq.Node {
		return graph.Path{}, true
	}
	tree, ok := r.trees[v]
	if !ok {
		if r.trees == nil {
			r.trees = map[graph.NodeID]graph.ShortestTree{}
		}
		tree = r.eng.Tree(r.g, v)
		r.trees[v] = tree
	}
	return tree.PathTo(r.g, rq.Node)
}

// RNRServing builds route-to-nearest-replica serving paths, capacity-
// obliviously: every request of s, in Requests order, is served over the
// shortest-path tree of its nearest replica under pl (a local hit gets an
// empty path). Trees come from eng, cold when eng is nil, and are memoized
// per replica within the call. Requests no replica reaches come back in
// the unserved map with their rates (nil when every request is served).
// dist must be the all-pairs least-cost matrix of s.G.
func RNRServing(s *Spec, pl *Placement, dist [][]float64, eng *graph.Engine) ([]ServingPath, map[Request]float64) {
	r := rnrRouter{g: s.G, pl: pl, dist: dist, eng: eng}
	var paths []ServingPath
	var unserved map[Request]float64
	for _, rq := range s.Requests() {
		lam := s.Rates[rq.Item][rq.Node]
		p, ok := r.route(rq)
		if !ok {
			if unserved == nil {
				unserved = map[Request]float64{}
			}
			unserved[rq] += lam
			continue
		}
		paths = append(paths, ServingPath{Req: rq, Path: p, Rate: lam})
	}
	return paths, unserved
}

// EvaluateOnTruth serves truth's demand with a decision taken on other
// (possibly predicted) demand, and measures it. Each request's decided
// paths are rescaled proportionally to carry its true rate; a request the
// decision did not anticipate (decided total zero) is served by RNRServing's
// rule under pl, so with no decided paths every request is. It returns the
// cost and congestion of the served paths (EvaluateServing semantics), the
// true rate served by that rule for requests not in declared (the
// decision's own unserved set), and the true rate no replica reaches, both
// summed in Requests order. dist and eng are as for RNRServing.
func EvaluateOnTruth(truth *Spec, pl *Placement, decided []ServingPath, declared map[Request]float64, dist [][]float64, eng *graph.Engine) (cost, maxUtil, unanticipated, unserved float64) {
	byReq := map[Request][]ServingPath{}
	decTotal := map[Request]float64{}
	for _, sp := range decided {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
		decTotal[sp.Req] += sp.Rate
	}
	r := rnrRouter{g: truth.G, pl: pl, dist: dist, eng: eng}
	var paths []ServingPath
	for _, rq := range truth.Requests() {
		lam := truth.Rates[rq.Item][rq.Node]
		if tot := decTotal[rq]; tot > rateEps {
			for _, sp := range byReq[rq] {
				paths = append(paths, ServingPath{Req: rq, Path: sp.Path, Rate: lam * sp.Rate / tot})
			}
			continue
		}
		p, ok := r.route(rq)
		if !ok {
			unserved += lam
			continue
		}
		paths = append(paths, ServingPath{Req: rq, Path: p, Rate: lam})
		if _, ok := declared[rq]; !ok {
			unanticipated += lam
		}
	}
	cost, _, maxUtil = EvaluateServing(truth, paths, pl)
	return cost, maxUtil, unanticipated, unserved
}
