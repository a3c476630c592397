package flow

import (
	"context"
	"fmt"
	"sync"

	"jcr/internal/graph"
)

// Overlay is a residual network for the per-item flows of a Lemma 4.5
// auxiliary graph, built once and reused for every item. The residual
// pairs of the base graph's arcs are laid down once, under newResNet's
// keep rule; each flow resets their capacities and lays only its own
// item's virtual-source arcs, in arc-ID order, and then its sink arcs over
// them. The other items' virtual sources, which no flow from this item
// reaches, get no node: the item's virtual source is numbered right after
// the base nodes and the super sink after it.
//
// Every residual arc therefore sits at the index newResNet gives it on the
// auxiliary graph, and every adjacency list has the same order. Node IDs
// only index arrays (the heap orders by label alone), so each Dijkstra
// pops the same sequence and the flow is the one a fresh residual network
// of the whole auxiliary graph gives, bit for bit, and so is any error.
//
// An Overlay is not safe for concurrent use: give each worker its own.
type Overlay struct {
	resNet
	aux *graph.Auxiliary
	// base is the number of residual arcs of the kept base arcs, and
	// baseHead every base node's adjacency head over those arcs alone.
	base     int
	baseHead []int
}

// overlayPool recycles overlay networks, arrays included, across Routes.
var overlayPool = sync.Pool{New: func() any { return new(Overlay) }}

// NewOverlay builds the overlay network of aux; Release returns it to a
// pool. aux must not change while the overlay is in use.
func NewOverlay(aux *graph.Auxiliary) *Overlay {
	g := aux.G
	nb, mb := aux.Base.NumNodes(), aux.Base.NumArcs()
	o := overlayPool.Get().(*Overlay)
	o.aux = aux
	r := &o.resNet
	r.n = nb + 2
	r.head = resize(r.head, r.n)
	for v := range r.head {
		r.head[v] = -1
	}
	r.next, r.to, r.cap, r.cost, r.orig = r.next[:0], r.to[:0], r.cap[:0], r.cost[:0], r.orig[:0]
	for id := 0; id < mb; id++ {
		// newResNet's keep rule with a virtual source as src: no base
		// node is the source, so a base arc stays iff its tail has an
		// entering arc in the auxiliary graph.
		a := g.Arc(id)
		if g.InDegree(a.From) == 0 {
			continue
		}
		r.addPair(a.From, a.To, a.Cap, a.Cost, id)
	}
	o.base = len(r.to)
	o.baseHead = append(o.baseHead[:0], r.head[:nb]...)
	return o
}

// Release returns the overlay to the pool; it must not be used after.
func (o *Overlay) Release() {
	o.aux = nil
	overlayPool.Put(o)
}

// MinCostFlowToSinks ships every sink's Amount from item k's virtual source
// at minimum cost and writes the arc flow into out, indexed like the
// auxiliary graph's arcs (len(out) must be its arc count). The sinks must
// be base nodes. capOf, when non-nil, overrides the capacity of every arc
// of the auxiliary graph. The flow and any error are the ones a fresh
// network, newResNet(aux.G, capOf, aux.VirtualSource[k], sinks), gives;
// out is left untouched when it returns an error.
//
//jcr:hotpath
func (o *Overlay) MinCostFlowToSinks(ctx context.Context, k int, capOf func(graph.ArcID) float64, sinks []Demand, out []float64) error {
	g := o.aux.G
	r := &o.resNet
	vs, super := r.n-2, r.n-1
	for _, d := range sinks {
		if d.Node < 0 || d.Node >= vs {
			return errNotBase(d.Node)
		}
	}
	copy(r.head, o.baseHead)
	r.head[vs], r.head[super] = -1, -1
	r.next, r.to, r.cap, r.cost, r.orig = r.next[:o.base], r.to[:o.base], r.cap[:o.base], r.cost[:o.base], r.orig[:o.base]
	for a := 0; a < o.base; a += 2 {
		id := r.orig[a]
		c := g.Arc(id).Cap
		if capOf != nil {
			c = capOf(id)
		}
		r.cap[a], r.cap[a+1] = c, 0
	}
	src := o.aux.VirtualSource[k]
	for _, id := range g.Out(src) {
		a := g.Arc(id)
		c := a.Cap
		if capOf != nil {
			c = capOf(id)
		}
		r.addPair(vs, a.To, c, a.Cost, id)
	}
	m := g.NumArcs()
	for j, d := range sinks {
		r.addPair(d.Node, super, d.Amount, 0, m+j)
	}
	var total float64
	for _, d := range sinks {
		total += d.Amount
	}
	// The error names the auxiliary graph's nodes: the virtual source and
	// the super sink newResNet would add after them.
	if err := r.ship(ctx, vs, super, total, src, g.NumNodes()); err != nil {
		return err
	}
	clear(out)
	for a := 0; a < len(r.to); a += 2 {
		// The flow on an arc is its backward residual capacity.
		f, id := r.cap[a+1], r.orig[a]
		if f < eps || id >= m {
			continue
		}
		out[id] = f
	}
	return nil
}

// errNotBase reports a sink outside the overlay's base nodes.
func errNotBase(v graph.NodeID) error {
	return fmt.Errorf("flow: sink %d is not a base node of the auxiliary graph", v)
}
