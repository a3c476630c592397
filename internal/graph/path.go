package graph

import (
	"fmt"
	"math"

	"jcr/internal/par"
)

// Path is a sequence of arc IDs forming a walk in a graph.
type Path struct {
	Arcs []ArcID
}

// Nodes returns the node sequence visited by the path in g, starting at the
// path's source. An empty path returns nil.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Arcs) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Arcs)+1)
	nodes = append(nodes, g.Arc(p.Arcs[0]).From)
	for _, id := range p.Arcs {
		nodes = append(nodes, g.Arc(id).To)
	}
	return nodes
}

// Cost returns the total routing cost of the path in g.
func (p Path) Cost(g *Graph) float64 {
	var c float64
	for _, id := range p.Arcs {
		c += g.Arc(id).Cost
	}
	return c
}

// Len reports the number of arcs on the path.
func (p Path) Len() int { return len(p.Arcs) }

// Source returns the first node of the path, or -1 if the path is empty.
func (p Path) Source(g *Graph) NodeID {
	if len(p.Arcs) == 0 {
		return -1
	}
	return g.Arc(p.Arcs[0]).From
}

// Dest returns the last node of the path, or -1 if the path is empty.
func (p Path) Dest(g *Graph) NodeID {
	if len(p.Arcs) == 0 {
		return -1
	}
	return g.Arc(p.Arcs[len(p.Arcs)-1]).To
}

// Validate checks that the path is a contiguous cycle-free walk from src to
// dst in g.
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	if len(p.Arcs) == 0 {
		if src != dst {
			return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
		}
		return nil
	}
	nodes := p.Nodes(g)
	if nodes[0] != src {
		return fmt.Errorf("graph: path starts at %d, want %d", nodes[0], src)
	}
	if nodes[len(nodes)-1] != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", nodes[len(nodes)-1], dst)
	}
	for k := 1; k < len(p.Arcs); k++ {
		if g.Arc(p.Arcs[k]).From != g.Arc(p.Arcs[k-1]).To {
			return fmt.Errorf("graph: path not contiguous at hop %d", k)
		}
	}
	seen := make(map[NodeID]struct{}, len(nodes))
	for _, v := range nodes {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("graph: path revisits node %d", v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// ShortestTree holds the result of a single-source shortest-path run.
type ShortestTree struct {
	Source NodeID
	// Dist[v] is the least cost from Source to v (math.Inf(1) if
	// unreachable).
	Dist []float64
	// ParentArc[v] is the arc entering v on a least-cost path from
	// Source, or -1 for the source and unreachable nodes.
	ParentArc []ArcID
}

// PathTo reconstructs a least-cost path from the tree's source to v. The
// boolean result is false if v is unreachable.
func (t ShortestTree) PathTo(g *Graph, v NodeID) (Path, bool) {
	if math.IsInf(t.Dist[v], 1) {
		return Path{}, false
	}
	var rev []ArcID
	for v != t.Source {
		id := t.ParentArc[v]
		rev = append(rev, id)
		v = g.Arc(id).From
	}
	arcs := make([]ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	return Path{Arcs: arcs}, true
}

// dijkstraCSR runs the canonical shortest-path kernel from src over the
// CSR view into s, which must hold a freshly reset epoch. Settle order is
// ascending (dist, node), relaxation is strictly improving, and each
// node's out-arcs are scanned in ascending arc-ID order; together these
// make the parent of every node the arc minimizing
// (dist[tail], tail, arc ID) among the arcs attaining its distance. The
// resulting tree is a pure function of the graph — no heap accidents —
// which is what lets the repair engine reproduce trees bit for bit
// (DESIGN.md §3.10). The run stops as soon as goal settles (its distance
// and parent chain are final then); Yen's first search is the caller.
//
//jcr:hotpath
func dijkstraCSR(c *csr, src, goal NodeID, s *scratch) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		if int(v) == goal {
			return
		}
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			id := c.fwdArc[j]
			w := c.fwdTo[j]
			nd := d + c.fwdCost[j]
			s.visit(w)
			if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = id
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRPlain is the full-tree kernel: identical settle order,
// relaxation, and tie behaviour to dijkstraCSR, with no goal and with the
// CSR arrays hoisted out of the loop. The full-tree entry points (TreeOf,
// AllPairs, the engine's unmasked cold path) all land here.
//
//jcr:hotpath
func dijkstraCSRPlain(c *csr, src NodeID, s *scratch) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			w := fwdTo[j]
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				// First touch always improves on the implicit
				// +inf, so fuse the epoch init with the relax.
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRBan is dijkstraCSR with arc and node bans given as bool
// arrays, the shape of Yen's spur searches. Identical settle order,
// relaxation, and tie behaviour on the arcs and nodes left in; the flat
// arrays keep the kernel free of indirect calls, which matters when it runs
// hundreds of times per Yen invocation.
// banNode[src] must be false (Yen never bans the spur node).
//
//jcr:hotpath
func dijkstraCSRBan(c *csr, src, goal NodeID, s *scratch, banArc, banNode []bool) {
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		if int(v) == goal {
			return
		}
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			if banArc[fwdArc[j]] {
				continue
			}
			w := fwdTo[j]
			if banNode[w] {
				continue
			}
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = fwdArc[j]
				s.heapFix(s.dist, w)
			}
		}
	}
}

// dijkstraCSRMask is the full-tree kernel with the engine's disabled-arc
// bitmask inlined (nil means nothing disabled). Same canonical behaviour as
// dijkstraCSR; it exists so the engine's cold path and repairs do not pay an
// indirect call per scanned arc.
//
//jcr:hotpath
func dijkstraCSRMask(c *csr, src NodeID, s *scratch, mask []uint64) {
	if mask == nil {
		dijkstraCSRPlain(c, src, s)
		return
	}
	sv := int32(src)
	s.visit(sv)
	s.dist[sv] = 0
	s.heapFix(s.dist, sv)
	fwdTo, fwdCost, fwdArc := c.fwdTo, c.fwdCost, c.fwdArc
	for len(s.heap) > 0 {
		v := s.heapPop(s.dist)
		d := s.dist[v]
		for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
			id := fwdArc[j]
			if mask[id>>6]&(1<<(uint(id)&63)) != 0 {
				continue
			}
			w := fwdTo[j]
			nd := d + fwdCost[j]
			if s.stamp[w] != s.cur {
				s.stamp[w] = s.cur
				s.dist[w] = nd
				s.parent[w] = id
				s.pos[w] = -1
				s.heapFix(s.dist, w)
			} else if nd < s.dist[w] {
				s.dist[w] = nd
				s.parent[w] = id
				s.heapFix(s.dist, w)
			}
		}
	}
}

// extractTree materializes the scratch of a completed full run (goal -1)
// as a ShortestTree; unstamped nodes were never reached.
func (s *scratch) extractTree(src NodeID, n int) ShortestTree {
	dist := make([]float64, n)
	parent := make([]ArcID, n)
	for v := 0; v < n; v++ {
		if s.stamp[v] == s.cur {
			dist[v] = s.dist[v]
			parent[v] = ArcID(s.parent[v])
		} else {
			dist[v] = posInf
			parent[v] = -1
		}
	}
	return ShortestTree{Source: src, Dist: dist, ParentArc: parent}
}

// path reconstructs the settled src->dst path straight from the scratch,
// valid as soon as dst has settled (so usable after a goal-bounded run).
func (s *scratch) path(g *Graph, src, dst NodeID) (Path, bool) {
	d := int32(dst)
	if s.stamp[d] != s.cur || math.IsInf(s.dist[d], 1) {
		return Path{}, false
	}
	var rev []ArcID
	for int(d) != src {
		id := s.parent[d]
		rev = append(rev, ArcID(id))
		d = int32(g.arcs[id].From)
	}
	arcs := make([]ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	return Path{Arcs: arcs}, true
}

// TreeOf is the one-shot full-tree entry point: the canonical shortest-path
// tree of g from src, with ties broken canonically (see dijkstraCSR), so
// the tree is a pure function of the graph. It equals Engine.Tree on the
// same graph bit for bit; use an Engine instead when the same or nearly the
// same tree is needed repeatedly (across alternating rounds, fault hours,
// or replica loops).
func TreeOf(g *Graph, src NodeID) ShortestTree {
	c := g.view()
	s := acquireScratch(c.n)
	dijkstraCSRPlain(c, src, s)
	t := s.extractTree(src, c.n)
	releaseScratch(s)
	return t
}

// AllPairs computes the pairwise least costs w_{v->s} for all ordered node
// pairs by running the shortest-path kernel from every node, fanning the
// sources out over the par worker pool. Result[v][s] is the least cost
// from v to s. Each worker draws its own pooled scratch and writes only
// its own row, and distances are tie-independent, so the result is
// identical to the sequential loop regardless of worker count.
func AllPairs(g *Graph) [][]float64 {
	c := g.view()
	n := c.n
	dist := make([][]float64, n)
	if err := par.Do(nil, 0, n, func(v int) error {
		s := acquireScratch(n)
		dijkstraCSRPlain(c, NodeID(v), s)
		row := make([]float64, n)
		for w := 0; w < n; w++ {
			if s.stamp[w] == s.cur {
				row[w] = s.dist[w]
			} else {
				row[w] = posInf
			}
		}
		dist[v] = row
		releaseScratch(s)
		return nil
	}); err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; no context is threaded and the per-source closures cannot fail
		panic(err)
	}
	return dist
}

// MaxFinite returns the maximum finite value in a pairwise distance matrix,
// i.e. the w_max bound used by Algorithm 1. It returns 0 for an empty
// matrix.
func MaxFinite(dist [][]float64) float64 {
	var m float64
	for _, row := range dist {
		for _, d := range row {
			if !math.IsInf(d, 1) && d > m {
				m = d
			}
		}
	}
	return m
}
