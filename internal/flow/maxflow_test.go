package flow

import (
	"math"

	"jcr/internal/graph"
)

// maxFlow computes a maximum flow from src to dst with the Edmonds-Karp
// algorithm (BFS augmenting paths). Arc costs are ignored. The returned
// Result's Cost field is still populated for convenience.
func maxFlow(g *graph.Graph, src, dst graph.NodeID) *Result {
	if src == dst {
		return &Result{Arc: make([]float64, g.NumArcs())}
	}
	r := newResNet(g, nil, src, nil)
	defer resNetPool.Put(r)
	queue := make([]int, 0, r.n)
	parent := make([]int, r.n)
	for {
		for v := range parent {
			parent[v] = -2 // unvisited
		}
		parent[src] = -1
		queue = queue[:0]
		queue = append(queue, src)
		for qi := 0; qi < len(queue) && parent[dst] == -2; qi++ {
			v := queue[qi]
			for a := r.head[v]; a >= 0; a = r.next[a] {
				if r.cap[a] <= eps {
					continue
				}
				if w := r.to[a]; parent[w] == -2 {
					parent[w] = a
					queue = append(queue, w)
				}
			}
		}
		if parent[dst] == -2 {
			break
		}
		bottleneck := math.Inf(1)
		for v := dst; v != src; {
			a := parent[v]
			if r.cap[a] < bottleneck {
				bottleneck = r.cap[a]
			}
			v = r.to[a^1]
		}
		if math.IsInf(bottleneck, 1) {
			// An entirely uncapacitated augmenting path means the max
			// flow is unbounded; report +Inf value with no arc flows.
			res := &Result{Arc: make([]float64, g.NumArcs())}
			res.Value = math.Inf(1)
			return res
		}
		for v := dst; v != src; {
			a := parent[v]
			r.cap[a] -= bottleneck
			r.cap[a^1] += bottleneck
			v = r.to[a^1]
		}
	}
	return r.extract(g, src)
}
