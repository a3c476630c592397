package placement

import (
	"jcr/internal/graph"
)

// polishPlacement improves an integral placement by monotone local search
// under the RNR objective: it fills unused cache slots with the items whose
// marginal saving is largest and swaps a cached item for an uncached one
// whenever that strictly increases the total saving. Because items occupy
// disjoint request sets, a swap's net effect is the added item's gain minus
// the removed item's loss, both computable from the per-request nearest and
// second-nearest replica distances. Homogeneous item sizes only (Alg. 1's
// setting).
//
// The same disjointness keeps the pass incremental: the nearest-two
// distances are cached per request and refreshed only for the item whose
// Stores column a fill or swap toggles, and an item's gain at a node is
// computed once per visit, since no move at that node changes the gain of
// an item it did not touch.
func polishPlacement(s *Spec, dist [][]float64, wmax float64, pl *Placement, nodes []graph.NodeID) {
	// near[i][k] holds the best and second-best replica distances (wmax
	// when absent) and the best replica of the k-th request of item i.
	type nearest struct {
		rq     Request
		d1, d2 float64
		v1     graph.NodeID
	}
	near := make([][]nearest, s.NumItems)
	for _, rq := range s.Requests() {
		near[rq.Item] = append(near[rq.Item], nearest{rq: rq})
	}
	// Clamped to wmax, nearestTwo is the scan that starts from wmax: a
	// replica no closer than wmax counts as absent.
	refresh := func(i int) {
		for k := range near[i] {
			n := &near[i][k]
			n.v1, _, n.d1, n.d2 = nearestTwo(pl, dist, n.rq)
			if n.d1 >= wmax {
				n.v1, n.d1 = -1, wmax
			}
			if n.d2 > wmax {
				n.d2 = wmax
			}
		}
	}
	for i := range near {
		refresh(i)
	}
	gainOf := func(v graph.NodeID, i int) float64 {
		var g float64
		for _, n := range near[i] {
			if d := dist[v][n.rq.Node]; d < n.d1 {
				g += s.Rates[i][n.rq.Node] * (n.d1 - d)
			}
		}
		return g
	}
	lossOf := func(v graph.NodeID, i int) float64 {
		var l float64
		for _, n := range near[i] {
			if n.v1 == v {
				l += s.Rates[i][n.rq.Node] * (n.d2 - n.d1)
			}
		}
		return l
	}
	// gains[i] is gainOf(v, i) for the node v being visited, for the
	// items v does not store.
	gains := make([]float64, s.NumItems)
	const maxRounds = 5
	for round := 0; round < maxRounds; round++ {
		improved := false
		for _, v := range nodes {
			used := 0.0
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] {
					used++
				} else {
					gains[i] = gainOf(v, i)
				}
			}
			// Fill any slack with the best-gaining items.
			for used+1 <= s.CacheCap[v]+capSlack {
				bestI, bestG := -1, gainEps
				for i := 0; i < s.NumItems; i++ {
					if !pl.Stores[v][i] && gains[i] > bestG {
						bestI, bestG = i, gains[i]
					}
				}
				if bestI < 0 {
					break
				}
				pl.Stores[v][bestI] = true
				refresh(bestI)
				used++
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
					if net := gains[in] - loss; net > bestNet {
						bestNet, bestIn, bestOut = net, in, out
					}
				}
			}
			if bestIn >= 0 {
				pl.Stores[v][bestOut] = false
				pl.Stores[v][bestIn] = true
				refresh(bestOut)
				refresh(bestIn)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
}
