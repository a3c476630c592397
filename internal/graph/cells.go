package graph

import (
	"fmt"
)

// CellSet is a per-cell decomposition snapshot of a graph: every node
// belongs to exactly one cell, arcs are split into cell-internal arcs and
// gateway (cross-cell) arcs, and each cell carries the local<->global
// translation maps the partition-aware solve pipeline threads through its
// subproblems (DESIGN.md §10). Like the engine's attachments, a CellSet is
// pinned to the graph generation it was built at: Fresh reports whether the
// snapshot still describes the graph, and Rebase re-attaches the cell
// structure onto a faults-degraded graph (an ordered arc sub-sequence of
// the base, the same shape Engine.match accepts) by masking the missing
// arcs out of every view instead of repartitioning.
type CellSet struct {
	base   *Graph
	gen    uint64
	assign []int
	cells  []*CellView
	// gateways lists every cross-cell arc, ascending by arc ID; the
	// boundary coordinator prices exactly these.
	gateways []ArcID
	// gatewayIndex[id] is the position of arc id in gateways, -1 for
	// internal arcs.
	gatewayIndex []int
}

// CellView is one cell's subgraph snapshot: its nodes (global IDs,
// ascending), the arcs fully inside it, and its boundary in both
// directions. All IDs are global; LocalNode/GlobalNode translate.
type CellView struct {
	index int
	// nodes are the cell's global node IDs, ascending; local node i is
	// nodes[i].
	nodes []NodeID
	// localOf[v] is v's local index, -1 for nodes outside the cell.
	localOf []int
	// internal lists arcs with both endpoints in the cell, ascending.
	internal []ArcID
	// exports lists gateway arcs leaving the cell (tail inside), ascending;
	// imports those entering (head inside), ascending.
	exports []ArcID
	imports []ArcID
	// boundary lists the cell's nodes incident to a gateway arc, ascending.
	boundary []NodeID

	sub     *Graph // lazily built local subgraph snapshot
	subArcs []ArcID
}

// NewCellSet decomposes g along the assignment (node -> cell index). Cell
// indices must be dense in [0, max+1) with every cell non-empty, the shape
// topo.Partition produces.
func NewCellSet(g *Graph, assign []int) (*CellSet, error) {
	if g == nil || len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("graph: cell assignment covers %d of %d nodes", len(assign), nodeCount(g))
	}
	k := 0
	for v, c := range assign {
		if c < 0 {
			return nil, fmt.Errorf("graph: node %d assigned negative cell %d", v, c)
		}
		if c+1 > k {
			k = c + 1
		}
	}
	if k == 0 {
		return nil, fmt.Errorf("graph: empty cell assignment")
	}
	cs := &CellSet{
		base:         g,
		gen:          g.Gen(),
		assign:       append([]int(nil), assign...),
		cells:        make([]*CellView, k),
		gatewayIndex: make([]int, g.NumArcs()),
	}
	for c := range cs.cells {
		cs.cells[c] = &CellView{index: c, localOf: make([]int, g.NumNodes())}
		for v := range cs.cells[c].localOf {
			cs.cells[c].localOf[v] = -1
		}
	}
	for v, c := range assign {
		cv := cs.cells[c]
		cv.localOf[v] = len(cv.nodes)
		cv.nodes = append(cv.nodes, v)
	}
	for c, cv := range cs.cells {
		if len(cv.nodes) == 0 {
			return nil, fmt.Errorf("graph: cell %d is empty (indices must be dense)", c)
		}
	}
	onBoundary := make([]bool, g.NumNodes())
	for id := 0; id < g.NumArcs(); id++ {
		a := g.Arc(id)
		from, to := assign[a.From], assign[a.To]
		if from == to {
			cs.gatewayIndex[id] = -1
			cs.cells[from].internal = append(cs.cells[from].internal, id)
			continue
		}
		cs.gatewayIndex[id] = len(cs.gateways)
		cs.gateways = append(cs.gateways, id)
		cs.cells[from].exports = append(cs.cells[from].exports, id)
		cs.cells[to].imports = append(cs.cells[to].imports, id)
		onBoundary[a.From] = true
		onBoundary[a.To] = true
	}
	for _, cv := range cs.cells {
		for _, v := range cv.nodes {
			if onBoundary[v] {
				cv.boundary = append(cv.boundary, v)
			}
		}
	}
	return cs, nil
}

func nodeCount(g *Graph) int {
	if g == nil {
		return 0
	}
	return g.NumNodes()
}

// Base returns the decomposed graph.
func (cs *CellSet) Base() *Graph { return cs.base }

// Gen returns the graph generation the snapshot was built at.
func (cs *CellSet) Gen() uint64 { return cs.gen }

// Fresh reports whether the snapshot still describes g: the same graph at
// the same mutation generation. A stale snapshot must be rebuilt (or
// Rebased) before use; arc IDs may have shifted under it.
func (cs *CellSet) Fresh(g *Graph) bool {
	return cs.base == g && cs.gen == g.Gen()
}

// K returns the number of cells.
func (cs *CellSet) K() int { return len(cs.cells) }

// Cell returns cell c's view.
func (cs *CellSet) Cell(c int) *CellView { return cs.cells[c] }

// Assign returns the node-to-cell assignment (shared; do not modify).
func (cs *CellSet) Assign() []int { return cs.assign }

// GatewayArcs lists every cross-cell arc, ascending by arc ID.
func (cs *CellSet) GatewayArcs() []ArcID { return cs.gateways }

// GatewayIndex returns an arc's position among the gateway arcs, or -1 for
// a cell-internal arc. Boundary coordinators index their price vectors by
// this.
func (cs *CellSet) GatewayIndex(id ArcID) int { return cs.gatewayIndex[id] }

// Rebase re-attaches the cell structure onto g2, a degraded variant of the
// base graph with the same nodes whose arc list is an ordered sub-sequence
// of the base's (compared by endpoints and cost — the faults engine's
// link-down construction, and what Engine.match accepts). The returned
// snapshot translates every view to g2's arc IDs with the masked-out arcs
// dropped; node membership and boundary sets are recomputed from the
// surviving arcs. Returns false when g2 does not embed.
func (cs *CellSet) Rebase(g2 *Graph) (*CellSet, bool) {
	if g2 == cs.base && g2.Gen() == cs.gen {
		return cs, true
	}
	if g2.NumNodes() != cs.base.NumNodes() || g2.NumArcs() > cs.base.NumArcs() {
		return nil, false
	}
	// Walk g2's arcs through the base arc list in order; every g2 arc must
	// match a base arc by endpoints and cost, skipped base arcs are the
	// disabled mask.
	j := 0
	m := cs.base.NumArcs()
	for i := 0; i < g2.NumArcs(); i++ {
		cur := g2.Arc(i)
		for j < m {
			home := cs.base.Arc(j)
			//jcrlint:allow float-eq: identity match of an untouched arc copy, not a tolerance check — a rescaled cost must force a rebuild
			if home.From == cur.From && home.To == cur.To && home.Cost == cur.Cost {
				break
			}
			j++
		}
		if j == m {
			return nil, false
		}
		j++
	}
	out, err := NewCellSet(g2, cs.assign)
	if err != nil {
		return nil, false
	}
	return out, true
}

// Index returns the cell's index in its CellSet.
func (cv *CellView) Index() int { return cv.index }

// NumNodes returns the cell's node count.
func (cv *CellView) NumNodes() int { return len(cv.nodes) }

// Nodes lists the cell's global node IDs, ascending (shared; do not
// modify). Local node i is Nodes()[i].
func (cv *CellView) Nodes() []NodeID { return cv.nodes }

// LocalNode translates a global node ID to the cell-local index, reporting
// whether the node belongs to the cell.
func (cv *CellView) LocalNode(v NodeID) (int, bool) {
	if v < 0 || v >= len(cv.localOf) {
		return -1, false
	}
	l := cv.localOf[v]
	return l, l >= 0
}

// GlobalNode translates a cell-local node index back to the global ID.
func (cv *CellView) GlobalNode(local int) NodeID { return cv.nodes[local] }

// InternalArcs lists the arcs with both endpoints in the cell, ascending by
// global arc ID (shared; do not modify).
func (cv *CellView) InternalArcs() []ArcID { return cv.internal }

// ExportArcs lists the gateway arcs leaving the cell (tail inside),
// ascending (shared; do not modify).
func (cv *CellView) ExportArcs() []ArcID { return cv.exports }

// ImportArcs lists the gateway arcs entering the cell (head inside),
// ascending (shared; do not modify).
func (cv *CellView) ImportArcs() []ArcID { return cv.imports }

// BoundaryNodes lists the cell's nodes with an incident gateway arc,
// ascending (shared; do not modify).
func (cv *CellView) BoundaryNodes() []NodeID { return cv.boundary }

// Subgraph returns the cell's local snapshot: a graph over the cell's
// nodes (local indices) containing exactly the internal arcs, in ascending
// global-arc order, with the original costs and capacities. The second
// return value maps local arc i back to the global arc ID. Built lazily
// and cached on the view; the CellSet's freshness contract covers it.
func (cv *CellView) Subgraph(base *Graph) (*Graph, []ArcID) {
	if cv.sub != nil {
		return cv.sub, cv.subArcs
	}
	sub := New(len(cv.nodes))
	arcs := make([]ArcID, 0, len(cv.internal))
	for _, id := range cv.internal {
		a := base.Arc(id)
		sub.AddArc(cv.localOf[a.From], cv.localOf[a.To], a.Cost, a.Cap)
		arcs = append(arcs, id)
	}
	cv.sub = sub
	cv.subArcs = arcs
	return sub, arcs
}
