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
// dst in g. The checks run in a fixed order (start, end, contiguity,
// revisits) and the first that fails is reported; a revisit names the
// first node, in path order, that the path has visited before. It
// allocates nothing unless it fails.
//
//jcr:hotpath
func (p Path) Validate(g *Graph, src, dst NodeID) error {
	arcs := p.Arcs
	if len(arcs) == 0 {
		if src != dst {
			return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
		}
		return nil
	}
	if from := g.arcs[arcs[0]].From; from != src {
		return fmt.Errorf("graph: path starts at %d, want %d", from, src)
	}
	if to := g.arcs[arcs[len(arcs)-1]].To; to != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", to, dst)
	}
	for k := 1; k < len(arcs); k++ {
		if g.arcs[arcs[k]].From != g.arcs[arcs[k-1]].To {
			return errNotContiguous(k)
		}
	}
	// The path is contiguous, so its node sequence is the first arc's tail
	// followed by every arc's head, and arc k's tail is node k: each head
	// is compared with the nodes before it.
	for j, id := range arcs {
		w := g.arcs[id].To
		for _, prev := range arcs[:j+1] {
			if g.arcs[prev].From == w {
				return errRevisits(w)
			}
		}
	}
	return nil
}

func errNotContiguous(hop int) error {
	return fmt.Errorf("graph: path not contiguous at hop %d", hop)
}

func errRevisits(v NodeID) error {
	return fmt.Errorf("graph: path revisits node %d", v)
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

// dijkstraCSRPlain runs the canonical shortest-path kernel from src over
// the CSR view into s, which must hold a freshly reset epoch. Settle order
// is ascending (dist, node), relaxation is strictly improving, and each
// node's out-arcs are scanned in ascending arc-ID order; together these
// make the parent of every node the arc minimizing
// (dist[tail], tail, arc ID) among the arcs attaining its distance. The
// resulting tree is a pure function of the graph — no heap accidents —
// which is what lets the repair engine reproduce trees bit for bit
// (DESIGN.md §3.10). The full-tree entry points (TreeOf, AllPairs, the
// engine's unmasked cold path) all land here.
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

// dijkstraCSRMask is dijkstraCSRPlain with a bitmask of arcs left out,
// inlined so the scan pays no indirect call per arc. Identical settle
// order, relaxation, and tie behaviour on the arcs left in. It serves the
// engine's cold path and Yen's searches, which ban a node by masking its
// in-arcs. The run stops as soon as goal settles (its distance and parent
// chain are final then); goal -1 grows the full tree.
//
//jcr:hotpath
func dijkstraCSRMask(c *csr, src, goal NodeID, s *scratch, mask []uint64) {
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

// TreeOf is the one-shot full-tree entry point: the canonical
// shortest-path tree of g from src, with ties broken canonically (see
// dijkstraCSRPlain), so the tree is a pure function of the graph. It
// equals Engine.Tree on the same graph bit for bit; use an Engine instead
// when the same or nearly the same tree is needed repeatedly (across
// alternating rounds, fault hours, or replica loops).
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
