package routing

import (
	"jcr/internal/graph"
	"jcr/internal/placement"
)

// Reuse carries routing state worth keeping across Route calls on the same
// instance — the alternating loop re-routes after every placement round, and
// the online controller re-routes every hour. Three layers cache:
//
//   - per-item demand sets (which nodes want each item, at what rate),
//     keyed by the Spec pointer: rebuilding the maps is pure overhead while
//     the demand matrix is fixed;
//   - the Lemma 4.5 auxiliary graph, keyed by the base graph's pointer and
//     mutation generation (graph.Graph.Gen) plus the replica groups: once
//     the alternating placement stabilizes, the groups repeat and the
//     virtual-source construction is identical;
//   - the shortest-path tree engine behind the best-effort reach filter.
//
// Every cache validates its key on each call and rebuilds on mismatch, so a
// Reuse handle never changes results — only how much work they take. The
// demand cache trusts the Spec pointer: callers that mutate s.Rates in place
// between calls must use a fresh Spec (the library's own loops build one per
// hour) or drop the handle.
//
// A Reuse is not safe for concurrent use; never share one across parallel
// workers (per-sequence handles keep `-workers N` runs bit-for-bit
// identical, see DESIGN.md §3.9). A nil *Reuse is valid and disables all
// caching, so call sites thread an optional handle without branching.
type Reuse struct {
	demSpec *placement.Spec
	demand  []itemDemand

	auxBase   *graph.Graph
	auxGen    uint64
	auxGroups [][]graph.NodeID
	aux       *graph.Auxiliary

	eng *graph.Engine
}

// NewReuse returns an empty handle; every first use builds from scratch.
func NewReuse() *Reuse { return &Reuse{} }

// Engine returns the handle's shortest-path-tree engine, created lazily:
// the best-effort reach filter asks it for per-replica trees, which repeat
// across alternating rounds (same graph, same replicas) and repair cheaply
// across fault hours. A nil handle returns a nil engine, which computes
// everything cold — identical results either way.
func (r *Reuse) Engine() *graph.Engine {
	if r == nil {
		return nil
	}
	if r.eng == nil {
		r.eng = graph.NewEngine()
	}
	return r.eng
}

// baseDemand returns the per-item demand sets of s (every item with positive
// total rate, its sink map and total), cached on the Spec pointer. The
// returned maps are shared with the cache: callers that delete entries
// (best-effort filtering) must clone first.
func (r *Reuse) baseDemand(s *placement.Spec) []itemDemand {
	if r != nil && r.demSpec == s {
		return r.demand
	}
	var out []itemDemand
	for i := 0; i < s.NumItems; i++ {
		sinks := map[graph.NodeID]float64{}
		var total float64
		for v, rate := range s.Rates[i] {
			if rate > 0 {
				sinks[v] += rate
				total += rate
			}
		}
		if total == 0 {
			continue
		}
		out = append(out, itemDemand{item: i, sinks: sinks, sorted: sortedSinks(sinks), total: total})
	}
	if r != nil {
		r.demSpec = s
		r.demand = out
	}
	return out
}

// auxiliary returns the Lemma 4.5 auxiliary graph for (g, groups), reusing
// the cached construction when the base graph (by pointer and mutation
// generation) and the replica groups are unchanged — fault injection that
// flips capacities in place moves g.Gen() and misses the cache.
func (r *Reuse) auxiliary(g *graph.Graph, groups [][]graph.NodeID) *graph.Auxiliary {
	if r != nil && r.auxBase == g && r.auxGen == g.Gen() && groupsEqual(r.auxGroups, groups) {
		return r.aux
	}
	aux := graph.NewAuxiliary(g, groups)
	if r != nil {
		r.auxBase = g
		r.auxGen = g.Gen()
		r.auxGroups = groups
		r.aux = aux
	}
	return aux
}

// groupsEqual reports element-wise equality of two replica group lists.
func groupsEqual(a, b [][]graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// cloneSinks deep-copies a demand map.
func cloneSinks(sinks map[graph.NodeID]float64) map[graph.NodeID]float64 {
	out := make(map[graph.NodeID]float64, len(sinks))
	for v, d := range sinks {
		out[v] = d
	}
	return out
}
