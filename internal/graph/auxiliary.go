package graph

// Auxiliary holds a virtual-source augmentation of a base graph, the
// construction of Lemma 4.5 (Fig. 2) and its per-content generalization in
// Section 4.3.2. Virtual arcs have zero cost and unlimited capacity, so a
// single-source routing problem in the auxiliary graph is equivalent to the
// joint source-selection-and-routing problem in the base graph.
type Auxiliary struct {
	// G is the augmented graph. Nodes [0, Base.NumNodes()) coincide with
	// the base graph; virtual sources follow.
	G *Graph
	// Base is the original graph.
	Base *Graph
	// VirtualSource[i] is the virtual source node added for commodity
	// group i (a single group for the binary-cache-capacity case, one
	// group per content item in the general case).
	VirtualSource []NodeID
}

// NewAuxiliary builds an auxiliary graph over base with one virtual source
// per entry of sources; sources[i] lists the real source nodes of group i.
// The virtual arcs follow the base arcs, group by group and in the order
// sources lists them, so VirtualSource[i]'s out-arcs are its group's
// virtual arcs in arc-ID order. No arc enters a virtual source. The base
// graph is cloned, so later mutations of base do not affect the auxiliary
// graph.
func NewAuxiliary(base *Graph, sources [][]NodeID) *Auxiliary {
	aux := &Auxiliary{
		G:             base.Clone(),
		Base:          base,
		VirtualSource: make([]NodeID, len(sources)),
	}
	for i, group := range sources {
		vs := aux.G.AddNode()
		aux.VirtualSource[i] = vs
		for _, v := range group {
			aux.G.AddArc(vs, v, 0, Unlimited)
		}
	}
	return aux
}

// IsVirtualArc reports whether an arc ID of the auxiliary graph is one of
// the added virtual arcs (as opposed to an arc of the base graph).
func (a *Auxiliary) IsVirtualArc(id ArcID) bool { return id >= a.Base.NumArcs() }

// StripVirtual removes the leading virtual arc from a path in the auxiliary
// graph, returning the base-graph path and the selected real source. A path
// that does not start with a virtual arc is returned unchanged with its own
// source node. Arc IDs of non-virtual arcs coincide between base and
// auxiliary graphs by construction. The base path shares p's arc storage
// instead of copying it; paths are read-only once built.
func (a *Auxiliary) StripVirtual(p Path) (base Path, source NodeID) {
	if len(p.Arcs) == 0 {
		return p, -1
	}
	if a.IsVirtualArc(p.Arcs[0]) {
		return Path{Arcs: p.Arcs[1:]}, a.G.Arc(p.Arcs[0]).To
	}
	return p, a.G.Arc(p.Arcs[0]).From
}
