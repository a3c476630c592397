package serve

import (
	"fmt"
	"math"

	"jcr/internal/graph"
)

// Failsafe is the bottom of the data plane's degradation ladder: a
// flattened shortest-path-to-designated-server route table compiled once at
// data-plane construction, entirely independent of the control plane. For
// every node it stores the least-cost path from the nearest designated
// server (an origin that pinned the whole catalog, so any item can be
// served) down to the node, in the same replica→requester orientation as
// compiled-plan routes. When no plan covers a request — the control plane
// never pushed one, or the pushed plan is stale with respect to the catalog
// — the lookup falls through here and still resolves, item-independently.
//
// Like CompiledPlan, the table is immutable and self-contained: lookups
// index dense arrays and allocate nothing.
type Failsafe struct {
	numNodes int
	// server[v] is the designated server chosen for node v (the one at
	// least cost, ties toward the lower server node ID), or -1 when v is
	// unreachable from every server.
	server []int32
	// dist[v] is the routing cost of the fail-safe route to v.
	dist []float64
	// paths holds node v's route at entry v, walking server[v] → v, over
	// an arc-endpoint snapshot so Route node reconstruction needs no graph.
	paths pathTable
}

// NewFailsafe compiles the fail-safe table for g and the given designated
// servers. At least one server is required; nodes unreachable from every
// server keep server -1 and resolve to a RouteNone lookup (counted by the
// data plane, never an error).
func NewFailsafe(g *graph.Graph, servers []graph.NodeID) (*Failsafe, error) {
	n := g.NumNodes()
	if len(servers) == 0 {
		return nil, fmt.Errorf("serve: fail-safe table needs at least one designated server")
	}
	for _, s := range servers {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("serve: designated server %d out of range [0,%d)", s, n)
		}
	}
	fs := &Failsafe{
		numNodes: n,
		server:   make([]int32, n),
		dist:     make([]float64, n),
		paths:    newPathTable(g, n),
	}
	trees := make([]graph.ShortestTree, len(servers))
	for k, s := range servers {
		trees[k] = graph.TreeOf(g, s)
	}
	best := make([]int, n)
	for v := 0; v < n; v++ {
		fs.server[v] = -1
		fs.dist[v] = math.Inf(1)
		best[v] = -1
		for k, s := range servers {
			d := trees[k].Dist[v]
			if d < fs.dist[v] || (d == fs.dist[v] && best[v] >= 0 && s < servers[best[v]]) { //jcrlint:allow float-eq: deterministic tie-break toward the lower server ID, not a tolerance check
				fs.dist[v] = d
				fs.server[v] = int32(s)
				best[v] = k
			}
		}
	}
	for v := 0; v < n; v++ {
		var arcs []graph.ArcID // an unreachable node keeps an empty route
		if best[v] >= 0 {
			p, ok := trees[best[v]].PathTo(g, v)
			if !ok {
				return nil, fmt.Errorf("serve: inconsistent fail-safe tree for node %d", v)
			}
			arcs = p.Arcs
		}
		fs.paths.appendPath(arcs)
	}
	return fs, nil
}

// NumNodes reports the number of nodes the table covers.
func (fs *Failsafe) NumNodes() int { return fs.numNodes }

// Server returns the designated server serving node v's fail-safe route,
// or -1 when v is unreachable from every server.
func (fs *Failsafe) Server(v graph.NodeID) graph.NodeID { return graph.NodeID(fs.server[v]) }

// Cost returns the fail-safe route cost to v (+Inf when unreachable).
func (fs *Failsafe) Cost(v graph.NodeID) float64 { return fs.dist[v] }
