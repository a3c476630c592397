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

// nearestTwo extends nearestReplica to the two least-cost replicas of rq's
// item: the nearest v1 at d1 and the runner-up v2 at d2, by the same scan
// (ascending node ID, strict <, an unreachable replica never chosen). A
// missing replica is -1 at +Inf.
func nearestTwo(p *Placement, dist [][]float64, rq Request) (v1, v2 graph.NodeID, d1, d2 float64) {
	v1, v2 = -1, -1
	d1, d2 = math.Inf(1), math.Inf(1)
	for v := range p.Stores {
		if !p.Stores[v][rq.Item] {
			continue
		}
		if d := dist[v][rq.Node]; d < d1 {
			v2, d2 = v1, d1
			v1, d1 = v, d
		} else if d < d2 {
			v2, d2 = v, d
		}
	}
	return v1, v2, d1, d2
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

// route returns rq's path from its nearest replica; ok is false when no
// replica reaches the requester.
func (r *rnrRouter) route(rq Request) (graph.Path, bool) {
	v, _ := nearestReplica(r.pl, r.dist, rq)
	if v < 0 {
		return graph.Path{}, false
	}
	return r.pathFrom(v, rq.Node)
}

// pathFrom returns the least-cost path from replica v to node to over v's
// memoized shortest-path tree (empty when v is to, which computes no tree).
func (r *rnrRouter) pathFrom(v, to graph.NodeID) (graph.Path, bool) {
	if v == to {
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
	return tree.PathTo(r.g, to)
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

// MultipathServing is the forwarding rule of the MinDelay-style baseline
// (arXiv 1710.05130): every request of s, in Requests order, is split over
// its two nearest replicas under pl (nearestTwo), inversely to their
// distance, each share on the replica's shortest-path tree. A local hit or
// a single reachable replica takes the whole rate; requests no replica
// reaches come back in the unserved map with their rates (nil when every
// request is served). Trees are cold and memoized per replica within the
// call. dist must be the all-pairs least-cost matrix of s.G.
func MultipathServing(s *Spec, pl *Placement, dist [][]float64) ([]ServingPath, map[Request]float64) {
	r := rnrRouter{g: s.G, pl: pl, dist: dist}
	var paths []ServingPath
	var unserved map[Request]float64
	for _, rq := range s.Requests() {
		lam := s.Rates[rq.Item][rq.Node]
		r1, r2, d1, d2 := nearestTwo(pl, dist, rq)
		switch {
		case r1 < 0:
			if unserved == nil {
				unserved = map[Request]float64{}
			}
			unserved[rq] += lam
		case r1 == rq.Node || r2 < 0:
			p, _ := r.pathFrom(r1, rq.Node)
			paths = append(paths, ServingPath{Req: rq, Path: p, Rate: lam})
		default:
			// w_p = 1/(d_p + 1): the cheaper path carries more, but
			// the second replica stays warm (the multipath behavior
			// MinDelay's hop-by-hop splits induce).
			w1, w2 := 1/(d1+1), 1/(d2+1)
			rate1 := lam * w1 / (w1 + w2)
			p1, _ := r.pathFrom(r1, rq.Node)
			p2, _ := r.pathFrom(r2, rq.Node)
			paths = append(paths,
				ServingPath{Req: rq, Path: p1, Rate: rate1},
				ServingPath{Req: rq, Path: p2, Rate: lam - rate1},
			)
		}
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
