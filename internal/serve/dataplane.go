package serve

import (
	"fmt"
	"sync/atomic"

	"jcr/internal/graph"
)

// RouteKind records which rung of the degradation ladder resolved a lookup.
type RouteKind uint8

// Ladder rungs, best first.
const (
	// RouteNone means even the fail-safe table could not resolve the
	// request: the requester is unreachable from every designated server.
	// Lookups still return (never an error); the data plane counts it.
	RouteNone RouteKind = iota
	// RoutePlan was served from the installed compiled plan.
	RoutePlan
	// RouteFailsafe was served from the static shortest-path-to-server
	// table because no installed plan covers the request.
	RouteFailsafe
)

func (k RouteKind) String() string {
	switch k {
	case RoutePlan:
		return "plan"
	case RouteFailsafe:
		return "failsafe"
	case RouteNone:
		return "none"
	default:
		return fmt.Sprintf("RouteKind(%d)", int(k))
	}
}

// Route is one resolved serving decision: which replica answers and over
// which path. It is a 48-byte value: the exported fields plus a view
// (table pointer and span) into the immutable path table of the plan or
// fail-safe table that resolved it, so constructing or copying one
// allocates nothing and moves six words.
type Route struct {
	// Kind is the ladder rung that resolved the lookup.
	Kind RouteKind
	// Epoch is the serving plan's epoch (zero for fail-safe routes).
	Epoch uint64
	// Replica is the node the content is served from.
	Replica graph.NodeID
	// Cost is the route's path cost.
	Cost float64

	path PathView
}

// Resolved reports whether the lookup produced a usable route.
func (r Route) Resolved() bool { return r.Kind != RouteNone }

// Hops reports the number of arcs on the route (0 for a local hit).
func (r Route) Hops() int { return r.path.Len() }

// Arc returns the j-th arc ID of the route, in replica→requester order,
// relative to the graph snapshot that produced the route.
func (r Route) Arc(j int) graph.ArcID { return r.path.Arc(j) }

// Node returns the j-th node of the route's node sequence, j in [0, Hops()].
// Undefined for local hits (no arcs).
func (r Route) Node(j int) graph.NodeID { return r.path.Node(j) }

// DataPlane answers replica/path lookups. All serving state is reached
// through one atomic plan pointer plus the immutable fail-safe table, so
// the read path is lock-free, allocation-free, and completely independent
// of the control plane's health: a dead, hung, or garbage-pushing control
// plane leaves lookups serving the last-known-good plan and fail-safe
// routes. Counters are plain atomics, one add per lookup on the rung that
// answered it; a Metrics snapshot is consistent enough for monitoring, not
// a transaction.
type DataPlane struct {
	fs   *Failsafe
	plan atomic.Pointer[CompiledPlan]

	planServed     atomic.Uint64
	failsafeServed atomic.Uint64
	unresolved     atomic.Uint64
	swaps          atomic.Uint64
	rejected       atomic.Uint64
}

// NewDataPlane builds a data plane for g with the given designated servers
// (the fail-safe route targets; typically the spec's pinned origins). It
// starts with no plan installed: every lookup resolves through the
// fail-safe table until the control plane pushes a valid plan.
func NewDataPlane(g *graph.Graph, servers []graph.NodeID) (*DataPlane, error) {
	fs, err := NewFailsafe(g, servers)
	if err != nil {
		return nil, err
	}
	return &DataPlane{fs: fs}, nil
}

// Plan returns the currently installed plan (nil before the first
// successful push).
func (d *DataPlane) Plan() *CompiledPlan { return d.plan.Load() }

// Epoch returns the installed plan's epoch (zero before the first push).
func (d *DataPlane) Epoch() uint64 {
	if p := d.plan.Load(); p != nil {
		return p.Epoch
	}
	return 0
}

// Install validates a pushed plan and atomically swaps it in. The swap
// protocol is all-or-nothing: the plan must be non-nil, match the data
// plane's node universe, pass the compiled-table SelfCheck, and carry an
// epoch strictly above the installed plan's (replays and reordered pushes
// are rejected). Any failure leaves the last-known-good plan serving,
// bumps the rejected-push counter, and returns the reason; lookups racing
// the swap see either the old or the new plan, both valid.
func (d *DataPlane) Install(p *CompiledPlan) error {
	if err := d.validate(p); err != nil {
		d.rejected.Add(1)
		return err
	}
	d.plan.Store(p)
	d.swaps.Add(1)
	return nil
}

// validate is Install's acceptance check, split out so the reject counter
// stays in one place.
func (d *DataPlane) validate(p *CompiledPlan) error {
	if p == nil {
		return fmt.Errorf("serve: rejected push: nil plan")
	}
	if p.NumNodes != d.fs.numNodes {
		return fmt.Errorf("serve: rejected push: plan covers %d nodes, data plane serves %d", p.NumNodes, d.fs.numNodes)
	}
	if cur := d.plan.Load(); cur != nil && p.Epoch <= cur.Epoch {
		return fmt.Errorf("serve: rejected push: epoch %d not above installed epoch %d", p.Epoch, cur.Epoch)
	}
	if err := p.SelfCheck(); err != nil {
		return fmt.Errorf("serve: rejected push: %w", err)
	}
	return nil
}

// Lookup resolves request (item, node) down the degradation ladder: the
// installed plan's compiled route table first, the fail-safe
// shortest-path-to-server table when the plan does not cover the request,
// RouteNone only when the requester is unreachable from every designated
// server. It never fails and never allocates; pick drives the weighted
// choice among a request's split routes (any value is valid — callers
// wanting the deterministic primary route pass 0, load generators pass a
// random word).
//
//jcr:hotpath
func (d *DataPlane) Lookup(item int, node graph.NodeID, pick uint64) Route {
	if p := d.plan.Load(); p != nil {
		if g, ok := p.group(item, node); ok {
			d.planServed.Add(1)
			return pickRoute(p, g, pick)
		}
	}
	if node >= 0 && node < d.fs.numNodes && d.fs.server[node] >= 0 {
		d.failsafeServed.Add(1)
		return Route{
			Kind:    RouteFailsafe,
			Replica: graph.NodeID(d.fs.server[node]),
			Cost:    d.fs.dist[node],
			path:    d.fs.paths.view(int32(node)),
		}
	}
	d.unresolved.Add(1)
	return Route{Kind: RouteNone, Replica: -1}
}

// pickRoute selects one of group g's split routes, weighted by rate:
// pick's high 53 bits map uniformly onto [0, groupRate[g]), and the walk
// settles on the route whose cumulative rate interval contains the target.
// Zero-total groups (all-zero split rates) settle on the first route. The
// choice is a pure function of (plan, request, pick).
//
//jcr:hotpath
func pickRoute(p *CompiledPlan, g int, pick uint64) Route {
	lo, hi := p.groupOff[g], p.groupOff[g+1]
	rt := lo
	if total := p.groupRate[g]; hi-lo > 1 && total > rateEps {
		target := float64(pick>>11) / (1 << 53) * total
		cum := 0.0
		for ; rt < hi-1; rt++ {
			cum += p.routeRate[rt]
			if target < cum {
				break
			}
		}
	}
	return Route{
		Kind:    RoutePlan,
		Epoch:   p.Epoch,
		Replica: graph.NodeID(p.routeReplica[rt]),
		Cost:    p.routeCost[rt],
		path:    p.paths.view(rt),
	}
}

// Metrics is a point-in-time snapshot of the data plane's counters and the
// installed plan's identity.
type Metrics struct {
	// Lookups is the total lookups answered; PlanServed, FailsafeServed
	// and Unresolved partition it by ladder rung. Each lookup bumps only
	// its rung's counter, and Snapshot derives Lookups as their sum, so
	// the partition holds exactly in every snapshot.
	Lookups, PlanServed, FailsafeServed, Unresolved uint64
	// Swaps counts accepted plan installs; RejectedPushes counts pushes
	// refused by swap validation.
	Swaps, RejectedPushes uint64
	// PlanEpoch is the installed plan's epoch (0 when none).
	PlanEpoch uint64
	// PlanAgeNanos is now minus the installed plan's CreatedAt stamp, the
	// staleness metric (-1 when no plan is installed). The caller supplies
	// now — binaries pass their clock, tests pass a constant — so the
	// library never reads wall time.
	PlanAgeNanos int64
}

// FallbackFraction is the fraction of lookups that fell past the plan
// (fail-safe or unresolved); 0 when no lookups were answered.
func (m Metrics) FallbackFraction() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.FailsafeServed+m.Unresolved) / float64(m.Lookups)
}

// Snapshot reads the counters. nowNanos feeds the plan-age staleness
// metric; pass 0 to skip it (PlanAgeNanos is then -CreatedAt-relative and
// meaningless, but the counters are unaffected).
func (d *DataPlane) Snapshot(nowNanos int64) Metrics {
	m := Metrics{
		PlanServed:     d.planServed.Load(),
		FailsafeServed: d.failsafeServed.Load(),
		Unresolved:     d.unresolved.Load(),
		Swaps:          d.swaps.Load(),
		RejectedPushes: d.rejected.Load(),
		PlanAgeNanos:   -1,
	}
	m.Lookups = m.PlanServed + m.FailsafeServed + m.Unresolved
	if p := d.plan.Load(); p != nil {
		m.PlanEpoch = p.Epoch
		m.PlanAgeNanos = nowNanos - p.CreatedAt
	}
	return m
}
