// Package serve is the long-running serving layer over the batch
// optimization pipeline: a control-plane/data-plane split in the style of
// cell-based routing architectures, applied to the paper's joint caching
// and routing plans.
//
// The data plane answers per-request "which replica, which path" lookups
// from an immutable CompiledPlan — flattened per-(node,item) route tables
// compiled from a placement.Placement plus its serving paths — behind a
// single atomic pointer swap: the read path takes no locks and performs no
// allocations. The control plane recomputes plans with the existing
// warm-started optimization pipeline as demand drifts and pushes full
// snapshots; every push is validated (feasibility invariants plus a
// compiled-table self-check) before the swap and rejected — keeping the
// last-known-good plan — otherwise. Requests a plan does not cover degrade
// to fail-safe shortest-path-to-designated-server routes compiled at data-
// plane construction, so a lookup never errors: the ladder is fresh plan →
// last-known-good plan → fail-safe route. Control-plane death, hangs, and
// corrupted pushes therefore never break traffic, which is the package's
// core robustness invariant (chaos-tested in chaos_test.go).
package serve

import (
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// rateEps is the slack below which a route rate is treated as zero by the
// weighted route picker (guards float residue in compiled split rates).
const rateEps = 1e-12

// CompiledPlan is an immutable, self-contained serving snapshot: for every
// (requester node, item) pair it holds the batch pipeline's serving routes
// — replica, path, split rate — flattened into dense arrays, plus a copy
// of the arc table and the placement bitmap, so lookups touch nothing but
// the plan itself. Plans are compiled once by the control plane, validated,
// and then only ever read; the data plane swaps whole plans atomically.
type CompiledPlan struct {
	// Epoch orders plans: the data plane accepts only strictly newer
	// epochs, so replayed or out-of-order pushes are rejected.
	Epoch uint64
	// CreatedAt is the plan's build timestamp in nanoseconds, stamped by
	// the control plane's injected clock (zero when no clock is
	// configured). The data plane exposes now-CreatedAt as the plan-age
	// staleness metric; the serving decision itself never reads a clock.
	CreatedAt int64
	// NumNodes and NumItems bound the plan's coverage: lookups outside
	// [0,NumNodes)x[0,NumItems) — a grown catalog under a stale plan —
	// fall through to the fail-safe ladder.
	NumNodes, NumItems int

	// groupOff indexes the routes of request group g = node*NumItems+item:
	// routes[groupOff[g]:groupOff[g+1]]. len = NumNodes*NumItems+1.
	groupOff []int32
	// groupRate[g] is the total split rate of group g, the denominator of
	// the weighted route pick. Compile sums it from 0 in route order, so it
	// is bit-for-bit the sum a lookup would otherwise recompute.
	groupRate []float64

	// Per-route tables, indexed by route ID.
	routeRate    []float64
	routeReplica []int32
	routeCost    []float64
	// paths holds route r's path at entry r (an empty span is a local
	// hit) plus the arc endpoints of the graph the plan was compiled on.
	// Lookups point their Routes at this embedded table, so Clone,
	// CorruptPlan and SelfCheck act on exactly the arrays lookups read.
	paths pathTable
	// arcCost completes the arc-table snapshot for SelfCheck's cost check.
	arcCost []float64

	// stores is the placement bitmap: node v stores item i iff
	// stores[v*storeStride + i/64] has bit i%64 set.
	stores      []uint64
	storeStride int
}

// Stores reports whether the compiled placement has node v storing item i.
func (p *CompiledPlan) Stores(v graph.NodeID, i int) bool {
	if v < 0 || v >= p.NumNodes || i < 0 || i >= p.NumItems {
		return false
	}
	return p.stores[v*p.storeStride+i>>6]&(1<<(uint(i)&63)) != 0
}

// NumRoutes reports the total number of compiled routes.
func (p *CompiledPlan) NumRoutes() int { return len(p.routeRate) }

// Routes returns the zero-allocation route view for request (item, node).
// ok is false when the pair is outside the plan's coverage or the plan
// compiled no route for it (a declared-unserved request, or simply no
// demand); the caller then falls down the fail-safe ladder.
func (p *CompiledPlan) Routes(item int, node graph.NodeID) (Routes, bool) {
	g, ok := p.group(item, node)
	if !ok {
		return Routes{}, false
	}
	return Routes{p: p, lo: p.groupOff[g], hi: p.groupOff[g+1]}, true
}

// group returns request (item, node)'s group index g; ok is false when
// the pair is outside the plan's coverage or its group holds no route.
func (p *CompiledPlan) group(item int, node graph.NodeID) (g int, ok bool) {
	if item < 0 || item >= p.NumItems || node < 0 || node >= p.NumNodes {
		return 0, false
	}
	g = node*p.NumItems + item
	return g, p.groupOff[g] < p.groupOff[g+1]
}

// Routes is a view of the compiled routes serving one request. The zero
// value is empty. Views are plain index windows into the plan's arrays:
// copying one allocates nothing.
type Routes struct {
	p      *CompiledPlan
	lo, hi int32
}

// Len reports the number of routes in the view.
func (r Routes) Len() int { return int(r.hi - r.lo) }

// Rate returns route k's split rate.
func (r Routes) Rate(k int) float64 { return r.p.routeRate[r.lo+int32(k)] }

// Replica returns the node route k serves the content from.
func (r Routes) Replica(k int) graph.NodeID { return graph.NodeID(r.p.routeReplica[r.lo+int32(k)]) }

// Cost returns route k's path cost.
func (r Routes) Cost(k int) float64 { return r.p.routeCost[r.lo+int32(k)] }

// Path returns route k's path view.
func (r Routes) Path(k int) PathView { return r.p.paths.view(r.lo + int32(k)) }

// pathTable flattens a set of paths over one arc-endpoint snapshot: entry
// e's path is arcs[arcOff[e]:arcOff[e+1]], in replica→requester order.
// Compiled plans index it by route ID, the fail-safe table by node.
type pathTable struct {
	arcOff         []int32
	arcs           []int32
	arcFrom, arcTo []int32
}

// view returns entry e's path view.
func (t *pathTable) view(e int32) PathView {
	return PathView{t: t, lo: t.arcOff[e], hi: t.arcOff[e+1]}
}

// newPathTable snapshots g's arc endpoints into an empty table with room
// for the given number of entries.
func newPathTable(g *graph.Graph, entries int) pathTable {
	m := g.NumArcs()
	t := pathTable{arcOff: make([]int32, 1, entries+1), arcFrom: make([]int32, m), arcTo: make([]int32, m)}
	for id := 0; id < m; id++ {
		a := g.Arc(id)
		t.arcFrom[id] = int32(a.From)
		t.arcTo[id] = int32(a.To)
	}
	return t
}

// appendPath appends one path as the table's next entry; arcOff must
// already hold its leading 0.
func (t *pathTable) appendPath(arcs []graph.ArcID) {
	for _, id := range arcs {
		t.arcs = append(t.arcs, int32(id))
	}
	t.arcOff = append(t.arcOff, int32(len(t.arcs)))
}

// PathView is a zero-allocation view of one path in a plan's or the
// fail-safe table's path table, in replica→requester order. An empty view
// (Len 0) is a local cache hit.
type PathView struct {
	t      *pathTable
	lo, hi int32
}

// Len reports the number of arcs on the path.
func (pv PathView) Len() int { return int(pv.hi - pv.lo) }

// Arc returns the j-th arc ID (in the table's graph snapshot).
func (pv PathView) Arc(j int) graph.ArcID { return graph.ArcID(pv.t.arcs[pv.lo:pv.hi][j]) }

// Node returns the j-th node of the path's node sequence, j in [0, Len()].
// Undefined for empty paths (local hits have no node sequence, matching
// graph.Path.Nodes).
func (pv PathView) Node(j int) graph.NodeID {
	span := pv.t.arcs[pv.lo:pv.hi]
	if j == 0 {
		return graph.NodeID(pv.t.arcFrom[span[0]])
	}
	return graph.NodeID(pv.t.arcTo[span[j-1]])
}

// Compile flattens a batch solution — a placement and its serving paths on
// spec's graph — into an immutable CompiledPlan stamped with the given
// epoch and creation time. It validates dimensions and path integrity as
// it goes and runs the full SelfCheck before returning, so a successfully
// compiled plan always passes swap validation.
//
// Routes are grouped by (node, item) with each request's paths kept in
// their original order, which is what makes compiled lookups reproduce the
// batch routes bit for bit (see the round-trip property test).
func Compile(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, epoch uint64, createdAt int64) (*CompiledPlan, error) {
	n, items := s.G.NumNodes(), s.NumItems
	if len(pl.Stores) != n {
		return nil, fmt.Errorf("serve: placement covers %d nodes, graph has %d", len(pl.Stores), n)
	}
	p := &CompiledPlan{
		Epoch:       epoch,
		CreatedAt:   createdAt,
		NumNodes:    n,
		NumItems:    items,
		storeStride: (items + 63) / 64,
	}
	// Arc-table snapshot.
	p.paths = newPathTable(s.G, len(paths))
	p.arcCost = make([]float64, s.G.NumArcs())
	for id := range p.arcCost {
		p.arcCost[id] = s.G.Arc(id).Cost
	}
	// Placement bitmap.
	p.stores = make([]uint64, n*p.storeStride)
	for v := 0; v < n; v++ {
		row := pl.Stores[v]
		if len(row) != items {
			return nil, fmt.Errorf("serve: node %d stores %d item slots, catalog has %d", v, len(row), items)
		}
		for i, has := range row {
			if has {
				p.stores[v*p.storeStride+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	// Group paths by (node, item), keeping each request's paths in input
	// order: stable sort on the group key only.
	order := make([]int, len(paths))
	for k := range order {
		order[k] = k
	}
	group := func(k int) (int, error) {
		rq := paths[k].Req
		if rq.Item < 0 || rq.Item >= items || rq.Node < 0 || rq.Node >= n {
			return 0, fmt.Errorf("serve: serving path %d references request (%d,%d) out of range", k, rq.Item, rq.Node)
		}
		return rq.Node*items + rq.Item, nil
	}
	for k := range paths {
		if _, err := group(k); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, _ := group(order[a])
		gb, _ := group(order[b])
		return ga < gb
	})
	p.groupOff = make([]int32, n*items+1)
	p.groupRate = make([]float64, n*items)
	p.routeRate = make([]float64, 0, len(paths))
	p.routeReplica = make([]int32, 0, len(paths))
	p.routeCost = make([]float64, 0, len(paths))
	prevGroup := 0
	for _, k := range order {
		sp := &paths[k]
		g, _ := group(k)
		for ; prevGroup < g; prevGroup++ {
			p.groupOff[prevGroup+1] = int32(len(p.routeRate))
		}
		if sp.Rate < 0 || math.IsNaN(sp.Rate) {
			return nil, fmt.Errorf("serve: serving path %d has invalid rate %v", k, sp.Rate)
		}
		replica := sp.Req.Node
		var cost float64
		if len(sp.Path.Arcs) > 0 {
			if err := sp.Path.Validate(s.G, sp.Path.Source(s.G), sp.Req.Node); err != nil {
				return nil, fmt.Errorf("serve: serving path %d for request (%d,%d): %w", k, sp.Req.Item, sp.Req.Node, err)
			}
			replica = sp.Path.Source(s.G)
			cost = sp.Path.Cost(s.G)
		}
		if !pl.Stores[replica][sp.Req.Item] {
			return nil, fmt.Errorf("serve: serving path %d for request (%d,%d) originates at %d, which stores no replica", k, sp.Req.Item, sp.Req.Node, replica)
		}
		p.routeRate = append(p.routeRate, sp.Rate)
		p.routeReplica = append(p.routeReplica, int32(replica))
		p.routeCost = append(p.routeCost, cost)
		p.groupRate[g] += sp.Rate
		p.paths.appendPath(sp.Path.Arcs)
	}
	for ; prevGroup < n*items; prevGroup++ {
		p.groupOff[prevGroup+1] = int32(len(p.routeRate))
	}
	if err := p.SelfCheck(); err != nil {
		return nil, fmt.Errorf("serve: compiled plan fails self-check: %w", err)
	}
	return p, nil
}

// SelfCheck verifies the compiled tables' structural invariants without any
// outside context: array lengths and offsets are consistent and monotone,
// every route's rate is finite and non-negative, every path is a
// contiguous, cycle-free replica→requester walk over the embedded arc
// table, the route's recorded replica and cost match its path, and the
// replica stores the item in the embedded placement bitmap. The data plane
// runs this (plus epoch ordering) on every push, so a corrupted plan is
// rejected before it can serve a single request.
func (p *CompiledPlan) SelfCheck() error {
	n, items := p.NumNodes, p.NumItems
	if n < 0 || items < 0 {
		return fmt.Errorf("serve: negative dimensions %dx%d", n, items)
	}
	if p.storeStride != (items+63)/64 || len(p.stores) != n*p.storeStride {
		return fmt.Errorf("serve: placement bitmap has %d words for %d nodes x %d items", len(p.stores), n, items)
	}
	if len(p.paths.arcFrom) != len(p.paths.arcTo) || len(p.paths.arcFrom) != len(p.arcCost) {
		return fmt.Errorf("serve: arc tables disagree: %d/%d/%d entries", len(p.paths.arcFrom), len(p.paths.arcTo), len(p.arcCost))
	}
	m := len(p.paths.arcFrom)
	for id := 0; id < m; id++ {
		if f, t := p.paths.arcFrom[id], p.paths.arcTo[id]; f < 0 || int(f) >= n || t < 0 || int(t) >= n {
			return fmt.Errorf("serve: arc %d endpoints (%d,%d) out of range", id, f, t)
		}
		if c := p.arcCost[id]; c < 0 || math.IsNaN(c) {
			return fmt.Errorf("serve: arc %d has invalid cost %v", id, c)
		}
	}
	nr := len(p.routeRate)
	if len(p.routeReplica) != nr || len(p.routeCost) != nr || len(p.paths.arcOff) != nr+1 {
		return fmt.Errorf("serve: route tables disagree: %d rates, %d replicas, %d costs, %d arc offsets",
			nr, len(p.routeReplica), len(p.routeCost), len(p.paths.arcOff))
	}
	if len(p.groupOff) != n*items+1 || len(p.groupRate) != n*items {
		return fmt.Errorf("serve: group tables cover %d/%d groups, want %d", len(p.groupOff)-1, len(p.groupRate), n*items)
	}
	if p.groupOff[0] != 0 || int(p.groupOff[n*items]) != nr {
		return fmt.Errorf("serve: group offsets span [%d,%d], want [0,%d]", p.groupOff[0], p.groupOff[n*items], nr)
	}
	if p.paths.arcOff[0] != 0 || int(p.paths.arcOff[nr]) != len(p.paths.arcs) {
		return fmt.Errorf("serve: arc offsets span [%d,%d], want [0,%d]", p.paths.arcOff[0], p.paths.arcOff[nr], len(p.paths.arcs))
	}
	// visited is an epoch-stamped scratch for the cycle check: node v was
	// seen on the current path iff visited[v] == stamp.
	visited := make([]int32, n)
	for v := range visited {
		visited[v] = -1
	}
	for g := 0; g < n*items; g++ {
		if p.groupOff[g] < 0 || p.groupOff[g+1] > int32(nr) || p.groupOff[g] > p.groupOff[g+1] {
			return fmt.Errorf("serve: group %d offsets [%d,%d) out of order or out of range [0,%d]", g, p.groupOff[g], p.groupOff[g+1], nr)
		}
		node, item := g/items, g%items
		var total float64
		for r := p.groupOff[g]; r < p.groupOff[g+1]; r++ {
			rate := p.routeRate[r]
			if rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
				return fmt.Errorf("serve: route %d has invalid rate %v", r, rate)
			}
			total += rate
			replica := p.routeReplica[r]
			if replica < 0 || int(replica) >= n {
				return fmt.Errorf("serve: route %d replica %d out of range", r, replica)
			}
			if !p.Stores(graph.NodeID(replica), item) {
				return fmt.Errorf("serve: route %d replica %d stores no copy of item %d", r, replica, item)
			}
			lo, hi := p.paths.arcOff[r], p.paths.arcOff[r+1]
			if lo < 0 || hi > int32(len(p.paths.arcs)) || lo > hi {
				return fmt.Errorf("serve: route %d arc offsets [%d,%d) out of order or out of range [0,%d]", r, lo, hi, len(p.paths.arcs))
			}
			if lo == hi {
				// Local hit: the requester itself must be the replica.
				if int(replica) != node {
					return fmt.Errorf("serve: route %d is a local hit but replica %d != requester %d", r, replica, node)
				}
				continue
			}
			if int(hi-lo) >= n {
				return fmt.Errorf("serve: route %d path has %d arcs on %d nodes; cannot be cycle-free", r, hi-lo, n)
			}
			var cost float64
			at := replica
			visited[at] = r
			for j := lo; j < hi; j++ {
				id := p.paths.arcs[j]
				if id < 0 || int(id) >= m {
					return fmt.Errorf("serve: route %d references arc %d out of range", r, id)
				}
				if p.paths.arcFrom[id] != at {
					return fmt.Errorf("serve: route %d path breaks at arc %d: from %d, cursor at %d", r, id, p.paths.arcFrom[id], at)
				}
				at = p.paths.arcTo[id]
				if visited[at] == r {
					return fmt.Errorf("serve: route %d path revisits node %d", r, at)
				}
				visited[at] = r
				cost += p.arcCost[id]
			}
			if int(at) != node {
				return fmt.Errorf("serve: route %d path ends at %d, requester is %d", r, at, node)
			}
			if math.Abs(cost-p.routeCost[r]) > rateEps*(1+math.Abs(cost)) {
				return fmt.Errorf("serve: route %d recorded cost %.9g, path costs %.9g", r, p.routeCost[r], cost)
			}
		}
		if !(math.Abs(total-p.groupRate[g]) <= rateEps*(1+total)) { // negated so a NaN recorded rate fails too
			return fmt.Errorf("serve: group %d recorded rate %.9g, routes sum to %.9g", g, p.groupRate[g], total)
		}
	}
	return nil
}

// Clone returns an independent deep copy of the plan.
func (p *CompiledPlan) Clone() *CompiledPlan {
	c := *p
	c.groupOff = append([]int32(nil), p.groupOff...)
	c.groupRate = append([]float64(nil), p.groupRate...)
	c.routeRate = append([]float64(nil), p.routeRate...)
	c.routeReplica = append([]int32(nil), p.routeReplica...)
	c.routeCost = append([]float64(nil), p.routeCost...)
	c.paths.arcOff = append([]int32(nil), p.paths.arcOff...)
	c.paths.arcs = append([]int32(nil), p.paths.arcs...)
	c.paths.arcFrom = append([]int32(nil), p.paths.arcFrom...)
	c.paths.arcTo = append([]int32(nil), p.paths.arcTo...)
	c.arcCost = append([]float64(nil), p.arcCost...)
	c.stores = append([]uint64(nil), p.stores...)
	return &c
}

// CorruptPlan returns a deep copy of the plan sabotaged in a seeded,
// deterministic way — the corruption the PushCorrupt fault injects in
// flight. The mutation is chosen by seed among several structural breaks
// (a negative rate, a replica pointing elsewhere, cross-wired arc or group
// offsets); every variant is guaranteed to be caught by SelfCheck, which
// the fault tests pin. Plans with no routes get their group table
// cross-wired, which SelfCheck also rejects.
func CorruptPlan(p *CompiledPlan, seed int64) *CompiledPlan {
	c := p.Clone()
	if seed < 0 {
		seed = -seed
	}
	nr := len(c.routeRate)
	if nr == 0 {
		c.groupOff[len(c.groupOff)-1] = int32(nr + 1)
		return c
	}
	r := int(seed % int64(nr))
	variant := seed % 4
	if variant == 1 && c.NumNodes < 2 {
		variant = 0 // a 1-node plan has nowhere to point the replica
	}
	switch variant {
	case 0:
		c.routeRate[r] = -1
	case 1:
		// Any other node breaks the route: a local hit stops matching its
		// requester, and a real path stops starting at its replica.
		c.routeReplica[r] = int32((int(c.routeReplica[r]) + 1) % c.NumNodes)
	case 2:
		// Arc span no longer matches the arc array: caught by the offset
		// span check before any indexing.
		c.paths.arcOff[nr]++
	default:
		// Mid-table group offset beyond the route count: caught by the
		// per-group range check.
		c.groupOff[len(c.groupOff)/2] = int32(nr + 7)
	}
	return c
}
