package experiments

import (
	"fmt"
	"math"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// rateEps is the request rate below which a decided total is treated as
// zero (the decision did not anticipate the request).
const rateEps = 1e-12

// EvaluateDecisionOnTruth measures the true cost and congestion of serving
// the TRUE demand over the serving paths that were decided using the
// (possibly predicted) decision demand. Each request's decided paths are
// rescaled proportionally to carry the true rate; requests that the
// decision did not anticipate (predicted rate zero but true rate positive)
// fall back to route-to-nearest-replica under the decided placement, the
// natural operational behaviour. With no decided paths every request falls
// back: the roster's rnr rule.
func EvaluateDecisionOnTruth(run *Run, pl *placement.Placement, decided []placement.ServingPath) (cost, maxUtil float64, err error) {
	truth := run.Truth
	byReq := map[placement.Request][]placement.ServingPath{}
	decTotal := map[placement.Request]float64{}
	for _, sp := range decided {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
		decTotal[sp.Req] += sp.Rate
	}
	var paths []placement.ServingPath
	var rnrTrees map[graph.NodeID]graph.ShortestTree
	for _, rq := range truth.Requests() {
		trueRate := truth.Rates[rq.Item][rq.Node]
		if tot := decTotal[rq]; tot > rateEps {
			for _, sp := range byReq[rq] {
				paths = append(paths, placement.ServingPath{
					Req:  rq,
					Path: sp.Path,
					Rate: trueRate * sp.Rate / tot,
				})
			}
			continue
		}
		// Unanticipated request: serve from the nearest replica.
		best, bestD := -1, math.Inf(1)
		for v := range pl.Stores {
			if pl.Stores[v][rq.Item] && run.Dist[v][rq.Node] < bestD {
				best, bestD = v, run.Dist[v][rq.Node]
			}
		}
		if best < 0 {
			return 0, 0, fmt.Errorf("experiments: no replica for unanticipated request %+v", rq)
		}
		if rnrTrees == nil {
			rnrTrees = map[graph.NodeID]graph.ShortestTree{}
		}
		tree, ok := rnrTrees[best]
		if !ok {
			tree = run.engine().Tree(truth.G, best)
			rnrTrees[best] = tree
		}
		p, ok := tree.PathTo(truth.G, rq.Node)
		if !ok {
			return 0, 0, fmt.Errorf("experiments: requester %d unreachable from replica %d", rq.Node, best)
		}
		paths = append(paths, placement.ServingPath{Req: rq, Path: p, Rate: trueRate})
	}
	cost, _, maxUtil = placement.EvaluateServing(truth, paths, pl)
	return cost, maxUtil, nil
}
