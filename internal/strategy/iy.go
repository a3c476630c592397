package strategy

import (
	"context"
	"fmt"
	"sort"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// fracEps is the fractional mass below which a relaxed caching variable is
// treated as zero during rounding.
const fracEps = 1e-9

func init() {
	register("iy-fixedpath", "Ioannidis-Yeh continuous-greedy caching over fixed shortest paths (arXiv 1708.05999)",
		func(o Options) Strategy { return &IYFixedPath{BestEffort: o.BestEffort, Steps: o.MaxIters} })
}

// IYFixedPath is the Ioannidis-Yeh-style baseline (arXiv 1708.05999):
// routing is fixed up front — every request is served along the least-cost
// path from its nearest designated server (a pinned origin) — and only
// caching is optimized, by maximizing the expected caching gain with the
// continuous-greedy (Frank-Wolfe) ascent those papers analyze, followed by
// deterministic rounding. The relaxation is exact here: with fixed paths
// and the serve-from-nearest-on-path-replica cut, the gain of a request is
// sum over path prefixes of the cost delta times the probability no
// earlier node holds the item, and the gradient is computed in closed
// form. What the baseline gives up versus the paper's alternating
// optimizer is routing: paths never react to the placement or to link
// capacities, which is exactly the comparison the paper draws.
type IYFixedPath struct {
	// BestEffort declares requests whose node no pinned origin reaches in
	// Plan.Unserved instead of failing on a partitioned network.
	BestEffort bool
	// Steps is the continuous-greedy step count (the 1/T discretization);
	// zero means 50.
	Steps int
}

// Name implements Strategy.
func (p *IYFixedPath) Name() string { return "iy-fixedpath" }

// iyRequest is one request's fixed serving path, preprocessed for gradient
// evaluation: the upstream node sequence from the requester to the server
// and the cumulative fetch-cost deltas along it.
type iyRequest struct {
	req  placement.Request
	rate float64
	// up[k] is the k-th node on the request's upstream walk (up[0] is
	// the requester, the last is the server); delta[k] is the extra cost
	// of fetching from up[k] rather than up[k-1] (k >= 1).
	up    []graph.NodeID
	delta []float64
}

// Decide implements Strategy.
func (p *IYFixedPath) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	spec := inst.Spec
	if len(spec.Pinned) == 0 {
		return nil, Stats{}, fmt.Errorf("strategy: iy-fixedpath needs a pinned origin as the designated server")
	}
	if err := pollCtx(ctx, "iy-fixedpath"); err != nil {
		return nil, Stats{}, err
	}
	dist := inst.Distances()
	// Fixed routing: route-to-nearest-replica on the pinned-only placement
	// serves each request from its nearest pinned origin over that
	// origin's shortest-path tree.
	paths, unserved := placement.RNRServing(spec, spec.NewPlacement(), dist, nil)
	if err := checkUnserved("iy-fixedpath", p.BestEffort, unserved); err != nil {
		return nil, Stats{}, err
	}
	reqs := make([]iyRequest, len(paths))
	for k, sp := range paths {
		ir := iyRequest{req: sp.Req, rate: sp.Rate}
		nodes := sp.Path.Nodes(spec.G)
		if len(nodes) == 0 {
			nodes = []graph.NodeID{sp.Req.Node} // local: requester is the server
		}
		// Walk upstream (requester -> server), accumulating cost deltas.
		ir.up = append(ir.up, nodes[len(nodes)-1])
		ir.delta = append(ir.delta, 0)
		for j := len(sp.Path.Arcs) - 1; j >= 0; j-- {
			ir.up = append(ir.up, nodes[j])
			ir.delta = append(ir.delta, spec.G.Arc(sp.Path.Arcs[j]).Cost)
		}
		reqs[k] = ir
	}
	// Relaxed caching variables y[v][i] for cache-capable non-pinned
	// nodes; pinned nodes are fixed at 1 implicitly via isServer.
	n := spec.G.NumNodes()
	cacheable := make([]bool, n)
	for v := 0; v < n; v++ {
		cacheable[v] = !spec.IsPinned(v) && spec.CacheCap[v] > 0
	}
	y := make([][]float64, n)
	grad := make([][]float64, n)
	for v := 0; v < n; v++ {
		if cacheable[v] {
			y[v] = make([]float64, spec.NumItems)
			grad[v] = make([]float64, spec.NumItems)
		}
	}
	steps := p.Steps
	if steps <= 0 {
		steps = 50
	}
	// Continuous greedy: T steps of y += x*/T where x* maximizes
	// <grad G(y), x> over the per-node knapsack polytope.
	for t := 0; t < steps; t++ {
		if err := pollCtx(ctx, "iy-fixedpath ascent"); err != nil {
			return nil, Stats{}, err
		}
		for v := 0; v < n; v++ {
			for i := range grad[v] {
				grad[v][i] = 0
			}
		}
		for ri := range reqs {
			ir := &reqs[ri]
			// survive = prod over earlier upstream nodes of (1 - y); a
			// pinned node pins the product to 0 past it.
			accumGrad(spec, ir, y, cacheable, grad)
		}
		for v := 0; v < n; v++ {
			if cacheable[v] {
				ascendKnapsack(spec, y[v], grad[v], spec.CacheCap[v], steps)
			}
		}
	}
	// Deterministic rounding: per node, keep the largest-mass items that
	// fit (ties toward the smaller item id).
	pl := spec.NewPlacement()
	for v := 0; v < n; v++ {
		if !cacheable[v] {
			continue
		}
		order := make([]int, spec.NumItems)
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return y[v][order[a]] > y[v][order[b]] })
		room := spec.CacheCap[v]
		for _, i := range order {
			if y[v][i] <= fracEps {
				break
			}
			if sz := spec.Size(i); sz <= room+capSlack {
				pl.Stores[v][i] = true
				room -= sz
			}
		}
	}
	plan := finishPlan(spec, &Plan{Placement: pl, Paths: paths, Unserved: unserved})
	return plan, Stats{Iterations: steps, Method: "continuous-greedy"}, nil
}

// accumGrad adds one request's contribution to the gradient of the
// expected caching gain: dG/dy[v_k][i] = lambda * sum_{m>k} delta_m *
// prod_{j<m, j!=k} (1 - y[v_j][i]), for every cacheable upstream node v_k.
func accumGrad(spec *placement.Spec, ir *iyRequest, y [][]float64, cacheable []bool, grad [][]float64) {
	K := len(ir.up)
	for k := 0; k < K; k++ {
		v := ir.up[k]
		if !cacheable[v] {
			continue
		}
		// prod tracks prod_{j<m, j!=k} (1 - y[v_j][i]) as m advances; a
		// pinned node fixes y=1 and kills the tail. Only m > k terms
		// count: caching at v_k saves exactly the fetch-cost suffix
		// beyond it.
		prod := 1.0
		var g float64
		for m := 1; m < K; m++ {
			if j := m - 1; j != k {
				prod *= 1 - yAt(spec, y, cacheable, ir.up[j], ir.req.Item)
			}
			if m > k {
				g += ir.delta[m] * prod
			}
			if prod <= 0 {
				break
			}
		}
		grad[v][ir.req.Item] += ir.rate * g
	}
}

// yAt reads the relaxed caching variable, treating pinned nodes as 1 and
// cache-less nodes as 0.
func yAt(spec *placement.Spec, y [][]float64, cacheable []bool, v graph.NodeID, i int) float64 {
	if spec.IsPinned(v) {
		return 1
	}
	if !cacheable[v] {
		return 0
	}
	return y[v][i]
}

// ascendKnapsack takes one continuous-greedy step at node v: the direction
// x* solving max <grad, x> subject to sum_i size_i*x_i <= cap, 0<=x<=1 is
// the fractional knapsack by gradient density; y moves 1/steps of the way,
// clamped to [0,1].
func ascendKnapsack(spec *placement.Spec, y, grad []float64, cap_ float64, steps int) {
	order := make([]int, 0, len(grad))
	for i, g := range grad {
		if g > 0 && spec.Size(i) <= cap_+capSlack {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		da := grad[order[a]] / spec.Size(order[a])
		db := grad[order[b]] / spec.Size(order[b])
		return da > db
	})
	room := cap_
	inv := 1 / float64(steps)
	for _, i := range order {
		if room <= capSlack {
			break
		}
		x := 1.0
		if sz := spec.Size(i); sz > room {
			x = room / sz
		}
		room -= x * spec.Size(i)
		y[i] += x * inv
		if y[i] > 1 {
			y[i] = 1
		}
	}
}
