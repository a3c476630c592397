package graph

import "math"

// refHeap is the lazy binary heap of the pre-engine Dijkstra: duplicate
// entries instead of decrease-key, no node tie-break. Kept only for
// referenceDijkstra.
type refHeap struct {
	node []NodeID
	dist []float64
}

func (h *refHeap) push(v NodeID, d float64) {
	h.node = append(h.node, v)
	h.dist = append(h.dist, d)
	i := len(h.node) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.dist[parent] <= h.dist[i] {
			break
		}
		h.node[parent], h.node[i] = h.node[i], h.node[parent]
		h.dist[parent], h.dist[i] = h.dist[i], h.dist[parent]
		i = parent
	}
}

func (h *refHeap) pop() (NodeID, float64) {
	v, d := h.node[0], h.dist[0]
	last := len(h.node) - 1
	h.node[0], h.dist[0] = h.node[last], h.dist[last]
	h.node = h.node[:last]
	h.dist = h.dist[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.dist[l] < h.dist[small] {
			small = l
		}
		if r < last && h.dist[r] < h.dist[small] {
			small = r
		}
		if small == i {
			break
		}
		h.node[small], h.node[i] = h.node[i], h.node[small]
		h.dist[small], h.dist[i] = h.dist[i], h.dist[small]
		i = small
	}
	return v, d
}

func (h *refHeap) empty() bool { return len(h.node) == 0 }

// referenceDijkstra is the pre-CSR scalar implementation, kept verbatim as
// the differential-testing oracle for the engine kernels and as the
// benchmark baseline. Distances are a pure function of the graph and so
// match the canonical kernel exactly (same floating-point sums in the same
// order along shortest chains); parent arcs may differ between equal-cost
// shortest paths, because this implementation breaks ties by heap accident
// where the kernel breaks them canonically. Differential tests therefore
// compare Dist only.
func referenceDijkstra(g *Graph, src NodeID, skipArc func(ArcID) bool, skipNode func(NodeID) bool) ShortestTree {
	n := g.NumNodes()
	dist := make([]float64, n)
	parent := make([]ArcID, n)
	done := make([]bool, n)
	for v := range dist {
		dist[v] = math.Inf(1)
		parent[v] = -1
	}
	dist[src] = 0
	var h refHeap
	h.push(src, 0)
	for !h.empty() {
		v, d := h.pop()
		if done[v] || d > dist[v] {
			continue
		}
		done[v] = true
		for _, id := range g.Out(v) {
			if skipArc != nil && skipArc(id) {
				continue
			}
			a := g.Arc(id)
			if skipNode != nil && a.To != src && skipNode(a.To) {
				continue
			}
			if nd := d + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
				parent[a.To] = id
				h.push(a.To, nd)
			}
		}
	}
	return ShortestTree{Source: src, Dist: dist, ParentArc: parent}
}
