// Package flow implements single-commodity network-flow algorithms on the
// library's directed graphs: minimum-cost flow via successive shortest
// paths with Johnson potentials, and the decomposition of arc flows into
// at most |E| simple paths used throughout the paper (Algorithm 2 line 2,
// Section 4.3.1).
//
// The min-cost flow's first iteration is a tree phase. Its Dijkstra runs
// with zero potentials, so the labels are true distances d and the parents
// a shortest-path tree. The phase then serves the sink's in-arcs in
// increasing distance along that tree, pushing what the plain loop would,
// until a push binds on a tree arc. Each push is a shortest augmenting
// path: with potentials d every live reduced cost is nonnegative and every
// tree arc, and each reverse arc a push opens, costs 0; raising the sink's
// potential to the distance of the in-arc being pushed keeps that true,
// because the in-arcs pushed before it are saturated. The loop resumes
// from these potentials for whatever is left. While no tree arc has died,
// the loop's own next Dijkstra would see the whole tree at reduced
// distance 0 and pick the next in-arc in the same order, so with distinct
// distances the flow is the one the plain loop returns, bit for bit.
// The residual network also leaves out arcs whose tail no flow can reach
// (a node other than the source with no entering arcs): in the auxiliary
// graph, the other items' virtual-source arcs.
package flow

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"jcr/internal/graph"
)

// ErrInsufficientCapacity reports that the requested flow value exceeds the
// network's capacity between the endpoints.
var ErrInsufficientCapacity = errors.New("flow: insufficient capacity")

const (
	// eps is the flow magnitude below which a value counts as zero.
	eps = 1e-9
	// distTol is the strict-improvement margin for Dijkstra labels; it
	// keeps float residue from re-relaxing settled nodes.
	distTol = 1e-12
	// arcEpsRel scales the per-arc zero threshold used by Decompose
	// with the total demand.
	arcEpsRel = 1e-12
)

// Result is a computed single-commodity flow.
type Result struct {
	// Arc[id] is the flow on arc id of the input graph.
	Arc []float64
	// Value is the total flow shipped from source to sink.
	Value float64
	// Cost is the total routing cost sum_e w_e * Arc[e].
	Cost float64
}

// residual network: arcs stored in pairs, forward 2k and backward 2k+1.
type resNet struct {
	n    int
	head []int // head[v]: first residual-arc index of v, -1 if none
	next []int // next[a]: next residual arc from the same tail
	to   []int
	cap  []float64
	cost []float64
	orig []graph.ArcID // orig[a]: the input arc this residual arc came from

	// Dijkstra scratch and node potentials, reused across the
	// successive-shortest-path augmentations (one dijkstra call per
	// augmentation adds up on dense instances; reusing the labels and the
	// heap keeps the inner loop allocation-free).
	dist   []float64
	parent []int
	done   []bool
	heap   []hEnt
	pot    []float64
	in     []int // shipTree's in-arcs of dst
}

// resNetPool recycles residual networks, arrays included, across flows:
// routing solves one flow per item per round, and building a fresh
// network for each dominated the allocation of an hourly replan.
// Concurrent callers (par.Do fan-out) each draw their own network.
var resNetPool = sync.Pool{New: func() any { return new(resNet) }}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// hEnt is a binary-heap entry for Dijkstra: node v with tentative label d.
type hEnt struct {
	v int
	d float64
}

// newResNet builds the residual network of g for flows out of src. capOf,
// when non-nil, overrides the capacity of every arc of g. Arcs leaving a
// node other than src that has no entering arcs are left out, since no
// flow from src reaches them; the kept arcs keep their relative order, so
// every adjacency list, and with it every heap sequence, is unchanged. Each
// sink appends one zero-cost arc of capacity Amount from its node to an
// added super sink (node g.NumNodes()), in the order given, after g's arcs;
// its residual pair carries orig = g.NumArcs() + its position in sinks.
func newResNet(g *graph.Graph, capOf func(graph.ArcID) float64, src graph.NodeID, sinks []Demand) *resNet {
	n := g.NumNodes()
	m := g.NumArcs()
	if sinks != nil {
		n++
	}
	ra := 2 * (m + len(sinks))
	r := resNetPool.Get().(*resNet)
	r.n = n
	r.head = resize(r.head, n)
	r.next = resize(r.next, ra)[:0]
	r.to = resize(r.to, ra)[:0]
	r.cap = resize(r.cap, ra)[:0]
	r.cost = resize(r.cost, ra)[:0]
	r.orig = resize(r.orig, ra)[:0]
	for v := range r.head {
		r.head[v] = -1
	}
	for id := 0; id < m; id++ {
		a := g.Arc(id)
		if a.From != src && g.InDegree(a.From) == 0 {
			continue
		}
		c := a.Cap
		if capOf != nil {
			c = capOf(id)
		}
		r.addPair(a.From, a.To, c, a.Cost, id)
	}
	for j, d := range sinks {
		r.addPair(d.Node, n-1, d.Amount, 0, m+j)
	}
	return r
}

func (r *resNet) addPair(u, v int, capacity, cost float64, orig graph.ArcID) {
	r.to = append(r.to, v, u)
	r.cap = append(r.cap, capacity, 0)
	r.cost = append(r.cost, cost, -cost)
	r.orig = append(r.orig, orig, orig)
	f := len(r.to) - 2
	r.next = append(r.next, r.head[u], r.head[v])
	r.head[u] = f
	r.head[v] = f + 1
}

// heapPush inserts e into the scratch heap.
func (r *resNet) heapPush(e hEnt) {
	heap := append(r.heap, e)
	i := len(heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if heap[p].d <= heap[i].d {
			break
		}
		heap[p], heap[i] = heap[i], heap[p]
		i = p
	}
	r.heap = heap
}

// heapPop removes and returns the minimum entry of the scratch heap.
func (r *resNet) heapPop() hEnt {
	heap := r.heap
	e := heap[0]
	last := len(heap) - 1
	heap[0] = heap[last]
	heap = heap[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		s := i
		if l < last && heap[l].d < heap[s].d {
			s = l
		}
		if rr < last && heap[rr].d < heap[s].d {
			s = rr
		}
		if s == i {
			break
		}
		heap[s], heap[i] = heap[i], heap[s]
		i = s
	}
	r.heap = heap
	return e
}

// dijkstra computes shortest reduced-cost distances from src; parent[v] is
// the residual arc entering v on the shortest path. The returned slices are
// the receiver's scratch, valid until the next call.
func (r *resNet) dijkstra(src int, pot []float64) (dist []float64, parent []int) {
	r.dist = resize(r.dist, r.n)
	r.parent = resize(r.parent, r.n)
	r.done = resize(r.done, r.n)
	dist, parent, done := r.dist, r.parent, r.done
	for v := range dist {
		dist[v] = math.Inf(1)
		parent[v] = -1
		done[v] = false
	}
	dist[src] = 0
	r.heap = r.heap[:0]
	r.heapPush(hEnt{src, 0})
	for len(r.heap) > 0 {
		e := r.heapPop()
		if done[e.v] || e.d > dist[e.v] {
			continue
		}
		done[e.v] = true
		for a := r.head[e.v]; a >= 0; a = r.next[a] {
			if r.cap[a] <= eps {
				continue
			}
			w := r.to[a]
			rc := r.cost[a] + pot[e.v] - pot[w]
			if rc < 0 {
				// Clamp tiny negatives from float accumulation;
				// potentials keep true reduced costs nonnegative.
				rc = 0
			}
			if nd := e.d + rc; nd < dist[w]-distTol {
				dist[w] = nd
				parent[w] = a
				r.heapPush(hEnt{w, nd})
			}
		}
	}
	return dist, parent
}

// MinCostFlow ships `value` units from src to dst at minimum cost using
// successive shortest paths. It returns ErrInsufficientCapacity (with the
// maximal shippable partial flow discarded) if the network cannot carry the
// requested value. Arc costs must be nonnegative, which graph.AddArc
// enforces. An infinite value ships as much as possible at minimum cost
// (min-cost max-flow).
//
// The successive-shortest-path loop polls ctx before every shortest-path
// search and aborts with an error wrapping ctx.Err() once the context is
// done, so a caller-imposed deadline stops the solver between
// augmentations instead of running the instance to completion. A nil ctx
// means no cancellation.
func MinCostFlow(ctx context.Context, g *graph.Graph, src, dst graph.NodeID, value float64) (*Result, error) {
	if src == dst {
		return &Result{Arc: make([]float64, g.NumArcs())}, nil
	}
	r := newResNet(g, nil, src, nil)
	defer resNetPool.Put(r)
	if err := r.ship(ctx, src, dst, value); err != nil {
		return nil, err
	}
	return r.extract(g, src), nil
}

// Demand is one sink of a multi-sink flow: Amount units must arrive at
// Node.
type Demand struct {
	Node   graph.NodeID
	Amount float64
}

// MinCostFlowToSinks ships every sink's Amount from src to its Node at
// minimum cost and returns the arc flow, indexed like g's arcs. It solves
// the super-sink construction (a zero-cost arc of capacity Amount from
// each sink to one added node, in the order given) on a residual network
// built straight from g, so g is neither copied nor mutated. capOf, when
// non-nil, overrides g's arc capacities. The residual arcs, and hence the
// flow, are those MinCostFlow computes on a copy of g with the same
// capacities and the sink arcs appended. It returns
// ErrInsufficientCapacity if the network cannot carry the total demand.
func MinCostFlowToSinks(ctx context.Context, g *graph.Graph, capOf func(graph.ArcID) float64, src graph.NodeID, sinks []Demand) ([]float64, error) {
	r := newResNet(g, capOf, src, sinks)
	defer resNetPool.Put(r)
	var total float64
	for _, d := range sinks {
		total += d.Amount
	}
	if err := r.ship(ctx, src, r.n-1, total); err != nil {
		return nil, err
	}
	return r.extract(g, src).Arc, nil
}

// ship runs successive shortest paths from src to dst until value units
// are shipped (as much as possible for an infinite value). For a finite
// value the first iteration is the tree phase (shipTree).
func (r *resNet) ship(ctx context.Context, src, dst int, value float64) error {
	r.pot = resize(r.pot, r.n)
	pot := r.pot
	clear(pot)
	remaining := value
	// Relative tolerance: float dust at ~1e6 request-rate scale must not
	// read as unroutable demand.
	tol := eps
	tree := false
	if !math.IsInf(value, 1) {
		tol = eps * (1 + value)
		tree = true
	}
	for remaining > tol {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("flow: canceled with %.6g units unshipped: %w", remaining, err)
			}
		}
		dist, parent := r.dijkstra(src, pot)
		if math.IsInf(dist[dst], 1) {
			if math.IsInf(value, 1) {
				break // max flow reached
			}
			return fmt.Errorf("%w: %.6g units unroutable from %d to %d",
				ErrInsufficientCapacity, remaining, src, dst)
		}
		for v := 0; v < r.n; v++ {
			if !math.IsInf(dist[v], 1) {
				pot[v] += dist[v]
			}
		}
		if tree {
			tree = false
			remaining = r.shipTree(src, dst, remaining, tol, parent)
			continue
		}
		amount := r.bottleneck(src, parent[dst], parent, remaining)
		r.push(src, parent[dst], parent, amount)
		remaining -= amount
	}
	return nil
}

// shipTree is ship's first iteration, the tree phase of the package
// comment. Its Dijkstra ran with zero potentials, so pot holds the tree
// distances. It walks dst's live in-arcs in increasing distance (the
// tail's distance plus the arc's cost) and pushes along each one's tree
// path what the loop would. It stops before a path that crosses a dead
// arc (only a path through dst itself can), and after a push that leaves
// the in-arc live, that is, one that bound on a tree arc. It returns the
// units left to ship.
func (r *resNet) shipTree(src, dst int, remaining, tol float64, parent []int) float64 {
	pot := r.pot
	in := r.in[:0]
	for a := r.head[dst]; a >= 0; a = r.next[a] {
		// a runs from dst to u, so b = a^1 is an arc from u into dst.
		u, b := r.to[a], a^1
		if r.cap[b] > eps && u != dst && (u == src || parent[u] >= 0) {
			in = append(in, b)
		}
	}
	key := func(b int) float64 { return r.cost[b] + pot[r.to[b^1]] }
	slices.SortStableFunc(in, func(x, y int) int { return cmp.Compare(key(x), key(y)) })
	r.in = in
	for _, b := range in {
		if remaining <= tol {
			break
		}
		amount := r.bottleneck(src, b, parent, remaining)
		if amount <= eps {
			break
		}
		pot[dst] = key(b)
		r.push(src, b, parent, amount)
		remaining -= amount
		if r.cap[b] > eps {
			break
		}
	}
	return remaining
}

// bottleneck returns what the loop pushes along the path that ends with
// residual arc last and otherwise follows parent back to src: the least of
// remaining and the path's residual capacities, or everything left when
// no capacity on the path is finite.
func (r *resNet) bottleneck(src, last int, parent []int, remaining float64) float64 {
	b := remaining
	for a := last; ; a = parent[r.to[a^1]] {
		if r.cap[a] < b {
			b = r.cap[a]
		}
		if r.to[a^1] == src {
			break
		}
	}
	if math.IsInf(b, 1) {
		// Entire path uncapacitated; ship everything left.
		b = remaining
	}
	return b
}

// push sends amount along the path bottleneck measured.
func (r *resNet) push(src, last int, parent []int, amount float64) {
	for a := last; ; a = parent[r.to[a^1]] {
		r.cap[a] -= amount
		r.cap[a^1] += amount
		if r.to[a^1] == src {
			return
		}
	}
}

// extract reads the flow on g's arcs off the residual network; the sink
// arcs of MinCostFlowToSinks come after them and are left out.
func (r *resNet) extract(g *graph.Graph, src graph.NodeID) *Result {
	m := g.NumArcs()
	res := &Result{Arc: make([]float64, m)}
	for k := 0; k < len(r.to); k += 2 {
		// Flow on the original arc equals the residual capacity of the
		// backward arc.
		f := r.cap[k+1]
		id := r.orig[k]
		if f < eps || id >= m {
			continue
		}
		res.Arc[id] += f
		res.Cost += f * g.Arc(id).Cost
	}
	res.Value = NetOutflow(g, res.Arc, src)
	return res
}

// NetOutflow computes the net outflow (out minus in) of node v under the
// arc flow.
func NetOutflow(g *graph.Graph, arcFlow []float64, v graph.NodeID) float64 {
	var net float64
	for _, id := range g.Out(v) {
		net += arcFlow[id]
	}
	for _, id := range g.In(v) {
		net -= arcFlow[id]
	}
	return net
}

// Cost computes the total routing cost of an arc flow.
func Cost(g *graph.Graph, arcFlow []float64) float64 {
	var c float64
	for id, f := range arcFlow {
		c += f * g.Arc(id).Cost
	}
	return c
}
