package msufp

import (
	"fmt"
	"math"
	"sort"

	"jcr/internal/graph"
)

// Numerical tolerances of the rounding pipeline, named in one place so
// the package's numerics are auditable (enforced by jcrlint tol-literal).
const (
	// relTol is the relative tolerance for deciding that a flow value is
	// an integral multiple of the current demand level.
	relTol = 1e-7
	// intTolAbs/intTolRel bound |v/d - round(v/d)| in isIntegralMultiple;
	// see that function's comment for why the absolute term dominates.
	intTolAbs = 1e-6
	intTolRel = 1e-10
	// splitTolRel is the relative slack when splitting decomposed path
	// flows back across commodities.
	splitTolRel = 1e-9
	// shortfallTolRel is the relative shortfall beyond which a commodity
	// counts as under-served after decomposition.
	shortfallTolRel = 1e-6
	// excessEps is the excess flow below which trimming stops.
	excessEps = 1e-12
	// topLevelTol guards the lambda == lambdaMax test in demandLevel
	// against float residue.
	topLevelTol = 1e-12
)

// UnsplittablePow2 implements the Lemma 4.6 subroutine ([33, Algorithm 2],
// the Dinitz-Garg-Goemans/Skutella construction): given commodities whose
// demands pairwise differ by integer powers of two and an aggregate
// splittable arc flow satisfying them from src, it returns one path per
// commodity such that the total path cost does not exceed the flow's cost
// and each arc's excess load over the input flow is below the largest
// demand routed through it.
//
// Demand levels are processed in ascending order; at each level d the flow
// is made d-integral by canceling fractional cycles in the cost
// non-increasing direction, then every demand-d commodity is routed on a
// single path of arcs carrying at least d and its flow removed.
//
// Path selection is load-aware: residual, when non-nil, holds each arc's
// remaining capacity and extraction prefers, among the eligible width->=d
// paths, one whose bottleneck residual capacity is largest; extracted
// demands are deducted in place. A nil residual ranks paths by their flow
// instead. Any eligible path satisfies Lemma 4.6's guarantees (the cost
// accounting and per-class excess bound are choice-independent), so this
// only steers WHERE the bounded excess lands - Algorithm 2 shares one
// residual vector across its K classes to stop per-class excess from
// stacking on the same links.
func UnsplittablePow2(g *graph.Graph, src graph.NodeID, dests []graph.NodeID, demands []float64, arcFlow, residual []float64) ([]graph.Path, error) {
	if len(dests) != len(demands) {
		return nil, fmt.Errorf("msufp: %d dests for %d demands", len(dests), len(demands))
	}
	if residual != nil && len(residual) != g.NumArcs() {
		return nil, fmt.Errorf("msufp: residual has %d entries for %d arcs", len(residual), g.NumArcs())
	}
	if len(arcFlow) != g.NumArcs() {
		return nil, fmt.Errorf("msufp: arc flow has %d entries for %d arcs", len(arcFlow), g.NumArcs())
	}
	n := len(dests)
	if n == 0 {
		return nil, nil
	}
	f := append([]float64(nil), arcFlow...)
	paths := make([]graph.Path, n)

	// Order commodity indices by ascending demand and group equal levels.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return demands[order[a]] < demands[order[b]] })

	for lo := 0; lo < n; {
		d := demands[order[lo]]
		hi := lo
		for hi < n && demands[order[hi]] <= d*(1+relTol) {
			hi++
		}
		if d <= 0 {
			// Zero demands get an arbitrary valid path (shortest),
			// all read off one tree.
			tree := graph.TreeOf(g, src)
			for _, i := range order[lo:hi] {
				p, ok := tree.PathTo(g, dests[i])
				if !ok {
					return nil, fmt.Errorf("msufp: destination %d unreachable", dests[i])
				}
				paths[i] = p
			}
			lo = hi
			continue
		}
		if err := dIntegralize(g, f, d); err != nil {
			return nil, err
		}
		for _, i := range order[lo:hi] {
			p, err := extractPath(g, f, src, dests[i], d, residual)
			if err != nil {
				return nil, fmt.Errorf("msufp: commodity to %d at level %.6g: %w", dests[i], d, err)
			}
			paths[i] = p
			if residual != nil {
				for _, id := range p.Arcs {
					residual[id] -= d
				}
			}
		}
		lo = hi
	}
	return paths, nil
}

// isIntegralMultiple reports whether v is an integral multiple of d, with a
// tolerance expressed in units of d (plus an allowance for float precision
// at large v/d ratios): a relative-to-v tolerance would be far looser than
// d itself on instances whose demands span several orders of magnitude.
func isIntegralMultiple(v, d float64) bool {
	r := v / d
	return math.Abs(r-math.Round(r)) <= intTolAbs+intTolRel*math.Abs(r)
}

// dIntegralize modifies f in place so every arc flow is an integral
// multiple of d, by repeatedly pushing flow around undirected cycles of
// fractional arcs in the direction that does not increase cost. Each push
// makes at least one arc integral, so the loop runs at most |E| times.
func dIntegralize(g *graph.Graph, f []float64, d float64) error {
	for iter := 0; ; iter++ {
		if iter > 2*g.NumArcs()+2 {
			return fmt.Errorf("msufp: d-integralization failed to converge at level %.6g", d)
		}
		// Snap near-integral values and collect fractional arcs.
		var fracArcs []graph.ArcID
		for id := range f {
			if f[id] < 0 {
				f[id] = 0
			}
			if isIntegralMultiple(f[id], d) {
				f[id] = d * math.Round(f[id]/d)
				continue
			}
			fracArcs = append(fracArcs, id)
		}
		if len(fracArcs) == 0 {
			return nil
		}
		cycleArcs, forward, stuck, err := findUndirectedCycle(g, fracArcs)
		if err != nil {
			return err
		}
		if stuck >= 0 {
			// A node ended up with a single fractional incident arc:
			// accumulated snapping error (bounded by the integrality
			// tolerance) broke the even-degree invariant. Absorb the
			// error by snapping that arc to its nearest multiple.
			f[stuck] = d * math.Round(f[stuck]/d)
			continue
		}
		// Cost of pushing +x along the traversal direction.
		var costDelta float64
		for k, id := range cycleArcs {
			if forward[k] {
				costDelta += g.Arc(id).Cost
			} else {
				costDelta -= g.Arc(id).Cost
			}
		}
		if costDelta > 0 {
			// Push the other way instead.
			for k := range forward {
				forward[k] = !forward[k]
			}
		}
		// Step size: first arc to hit a multiple of d.
		x := math.Inf(1)
		for k, id := range cycleArcs {
			var room float64
			if forward[k] {
				room = d*math.Ceil(f[id]/d) - f[id]
			} else {
				room = f[id] - d*math.Floor(f[id]/d)
			}
			if room < x {
				x = room
			}
		}
		if !(x > 0) || math.IsInf(x, 1) {
			return fmt.Errorf("msufp: degenerate cycle push x=%v at level %.6g", x, d)
		}
		for k, id := range cycleArcs {
			if forward[k] {
				f[id] += x
			} else {
				f[id] -= x
			}
		}
	}
}

// findUndirectedCycle locates a cycle in the subgraph formed by the given
// arcs when direction is ignored. It returns the cycle's arcs in traversal
// order and, for each, whether the traversal follows the arc's direction.
// Flow conservation guarantees every node incident to a fractional arc has
// at least two incident fractional arcs, so a cycle normally exists; if a
// degree-1 node is found instead (numerical snapping error), its incident
// arc is returned as `stuck` for the caller to repair.
func findUndirectedCycle(g *graph.Graph, arcs []graph.ArcID) (cycle []graph.ArcID, fwd []bool, stuck graph.ArcID, err error) {
	type inc struct {
		arc graph.ArcID
		fwd bool // true when leaving the node along the arc direction
	}
	adj := map[graph.NodeID][]inc{}
	for _, id := range arcs {
		a := g.Arc(id)
		adj[a.From] = append(adj[a.From], inc{id, true})
		adj[a.To] = append(adj[a.To], inc{id, false})
	}
	start := g.Arc(arcs[0]).From
	pos := map[graph.NodeID]int{start: 0}
	walkArcs := []graph.ArcID{}
	walkFwd := []bool{}
	cur := start
	last := graph.ArcID(-1)
	for step := 0; step <= len(arcs)+1; step++ {
		var chosen *inc
		for k := range adj[cur] {
			if adj[cur][k].arc != last {
				chosen = &adj[cur][k]
				break
			}
		}
		if chosen == nil {
			if last >= 0 {
				return nil, nil, last, nil
			}
			return nil, nil, -1, fmt.Errorf("msufp: isolated fractional node %d", cur)
		}
		var next graph.NodeID
		if chosen.fwd {
			next = g.Arc(chosen.arc).To
		} else {
			next = g.Arc(chosen.arc).From
		}
		if at, seen := pos[next]; seen {
			cyc := append(append([]graph.ArcID(nil), walkArcs[at:]...), chosen.arc)
			dir := append(append([]bool(nil), walkFwd[at:]...), chosen.fwd)
			return cyc, dir, -1, nil
		}
		pos[next] = len(walkArcs) + 1
		walkArcs = append(walkArcs, chosen.arc)
		walkFwd = append(walkFwd, chosen.fwd)
		cur = next
		last = chosen.arc
	}
	return nil, nil, -1, fmt.Errorf("msufp: cycle walk exceeded bound (internal error)")
}

// extractPath finds a simple src->dst path along arcs with flow at least d,
// removes d units of flow along it, and returns it. Among eligible paths it
// picks a maximum-bottleneck (widest) one, so repeated extractions follow
// the splittable flow's spread instead of draining one route; this lets the
// demand-rounding error (controlled by K) dominate the measured congestion,
// as in the paper's Fig. 6.
func extractPath(g *graph.Graph, f []float64, src, dst graph.NodeID, d float64, residual []float64) (graph.Path, error) {
	thresh := d * (1 - relTol)
	n := g.NumNodes()
	width := make([]float64, n)
	parent := make([]graph.ArcID, n)
	done := make([]bool, n)
	for v := range parent {
		parent[v] = -1
		width[v] = math.Inf(-1)
	}
	width[src] = math.Inf(1)
	// metric is what the widest-path search maximizes along the f>=d
	// subgraph: the flow itself by default, the remaining link capacity
	// in load-aware mode (negative values rank overloaded links last but
	// keep them usable, since eligibility only requires f >= d).
	metric := func(id graph.ArcID) float64 {
		if residual != nil {
			return residual[id]
		}
		return f[id]
	}
	for !done[dst] {
		// Undone node with the largest width; on these small graphs a
		// linear scan beats heap bookkeeping.
		v := -1
		for u := 0; u < n; u++ {
			if !done[u] && !math.IsInf(width[u], -1) && (v < 0 || width[u] > width[v]) {
				v = u
			}
		}
		if v < 0 {
			break
		}
		done[v] = true
		for _, id := range g.Out(v) {
			if f[id] < thresh {
				continue
			}
			w := g.Arc(id).To
			b := math.Min(width[v], metric(id))
			if !done[w] && b > width[w] {
				width[w] = b
				parent[w] = id
			}
		}
	}
	if parent[dst] < 0 && dst != src {
		return graph.Path{}, fmt.Errorf("no path with width %.6g available", d)
	}
	var rev []graph.ArcID
	for v := dst; v != src; {
		id := parent[v]
		rev = append(rev, id)
		v = g.Arc(id).From
	}
	arcs := make([]graph.ArcID, len(rev))
	for i := range rev {
		arcs[i] = rev[len(rev)-1-i]
	}
	for _, id := range arcs {
		f[id] -= d
		if f[id] < 0 {
			f[id] = 0
		}
	}
	return graph.Path{Arcs: arcs}, nil
}
