package placement

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"jcr/internal/core/lputil"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/par"
)

// ServingPath is one response path serving a request at a given rate, the
// (p, lambda_p) pairs of Section 4.3.1. The path runs from a content source
// toward the requester; Req.Node must be its last node.
type ServingPath struct {
	Req  Request
	Path graph.Path
	Rate float64
}

// PerPathMethod selects how the Section 4.3.1 placement subproblem is
// solved.
type PerPathMethod int

const (
	// PerPathAuto uses the LP + pipage algorithm when the LP is small
	// enough and the greedy otherwise.
	PerPathAuto PerPathMethod = iota
	// PerPathLP forces the (1-1/e)-approximate LP + pipage algorithm
	// (the chunk-level method in the paper).
	PerPathLP
	// PerPathGreedy forces the greedy algorithm (the paper's file-level
	// method; 1/(1+p)-approximate by Theorem 5.2 / Lemma 5.3).
	PerPathGreedy
)

// perPathLPLimit caps, for PerPathAuto, the (path, link) pairs of the
// serving paths, i.e. the z variables of Eq. (15) before the presolve;
// beyond it greedy is used. The presolved LP stays far smaller than this
// count; what grows with it is the saving enumeration and pipage rounding's
// derivative evaluations. Moving the cap would change which method Auto
// picks, and so the outputs, on existing instances.
const perPathLPLimit = 1500

// PerPathSaving evaluates the cost saving F_{r,f}(x) of Eq. (14): for each
// serving path, the reduction in traversed-link cost due to serving the
// request from the cached node nearest to the requester along the path.
func PerPathSaving(s *Spec, paths []ServingPath, pl *Placement) float64 {
	var saving float64
	for k := range paths {
		sp := &paths[k]
		full, remaining := pathCostUnder(s, sp, pl)
		saving += sp.Rate * (full - remaining)
	}
	return saving
}

// PerPathCost evaluates C_{r,f}(x) of Eq. (13).
func PerPathCost(s *Spec, paths []ServingPath, pl *Placement) float64 {
	var cost float64
	for k := range paths {
		sp := &paths[k]
		_, remaining := pathCostUnder(s, sp, pl)
		cost += sp.Rate * remaining
	}
	return cost
}

// pathCostUnder returns the full path cost and the cost actually incurred
// under placement pl: the suffix of the path after its last node (nearest
// to the requester) storing the item.
func pathCostUnder(s *Spec, sp *ServingPath, pl *Placement) (full, remaining float64) {
	g := s.G
	cut := servedFrom(g, sp, pl)
	for j, id := range sp.Path.Arcs {
		w := g.Arc(id).Cost
		full += w
		if j >= cut {
			remaining += w
		}
	}
	return full, remaining
}

// PerPathOptions tune the Section 4.3.1 placement subproblem.
type PerPathOptions struct {
	// Method selects the LP + pipage algorithm, the greedy, or Auto.
	Method PerPathMethod
	// Workers bounds the worker pool used for the per-(path, link) saving
	// enumeration feeding the Eq. (15) LP. Zero or negative means
	// GOMAXPROCS. The result is independent of the worker count: savings
	// are merged in path order (see internal/par).
	Workers int
	// Solver, when non-nil, is the reusable warm-start handle for the
	// Eq. (15) LP: across alternating rounds and online hours the serving
	// paths often repeat, so the LP skeleton repeats and the previous
	// optimal basis carries over (see internal/lp's Solver). Nil solves
	// one-shot. The handle is stateful and must not be shared across
	// parallel workers.
	Solver *lp.Solver
}

// PlacePerPath solves the content-placement subproblem of Section 4.3.1:
// given fixed source selection and routing (the serving paths), choose an
// integral placement maximizing the cost saving (14) subject to cache
// capacities. Homogeneous item sizes admit the LP (15) + pipage rounding
// algorithm with a (1-1/e) guarantee; heterogeneous sizes always use the
// greedy (Lemma 5.3 + Theorem 5.2).
//
// ctx is threaded into the LP solve and polled by the greedy loop, so a
// caller-imposed deadline stops the subproblem mid-run. A nil ctx means no
// cancellation.
func PlacePerPath(ctx context.Context, s *Spec, paths []ServingPath, opts PerPathOptions) (*Placement, error) {
	method := opts.Method
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for k := range paths {
		sp := &paths[k]
		if sp.Path.Len() > 0 && sp.Path.Dest(s.G) != sp.Req.Node {
			return nil, fmt.Errorf("placement: serving path %d ends at %d, not requester %d", k, sp.Path.Dest(s.G), sp.Req.Node)
		}
	}
	useLP := false
	switch method {
	case PerPathLP:
		useLP = true
	case PerPathGreedy:
		useLP = false
	case PerPathAuto:
		var zCount int
		for k := range paths {
			zCount += paths[k].Path.Len()
		}
		useLP = zCount <= perPathLPLimit
	default:
		return nil, fmt.Errorf("placement: unknown per-path method %d", method)
	}
	if s.ItemSize != nil {
		useLP = false // pipage cannot swap heterogeneous sizes (Section 5.2.2)
	}
	if useLP {
		return placePerPathLP(ctx, s, paths, opts.Workers, opts.Solver)
	}
	return placePerPathGreedy(ctx, s, paths)
}

// placePerPathGreedy maximizes (14) by greedily caching the (node, item)
// pair with the largest marginal saving until nothing fits.
func placePerPathGreedy(ctx context.Context, s *Spec, paths []ServingPath) (*Placement, error) {
	pl := s.NewPlacement()
	g := s.G
	// Per item, the paths serving it, with cached-cut state.
	type pstate struct {
		sp     *ServingPath
		nodes  []graph.NodeID
		suffix []float64 // suffix[j] = cost of links from node j to the end
		cut    int
	}
	byItem := make([][]*pstate, s.NumItems)
	for k := range paths {
		sp := &paths[k]
		if sp.Rate <= 0 || sp.Path.Len() == 0 {
			continue
		}
		nodes := sp.Path.Nodes(g)
		suffix := make([]float64, len(nodes))
		for j := len(sp.Path.Arcs) - 1; j >= 0; j-- {
			suffix[j] = suffix[j+1] + g.Arc(sp.Path.Arcs[j]).Cost
		}
		st := &pstate{sp: sp, nodes: nodes, suffix: suffix, cut: 0}
		for j := len(nodes) - 1; j >= 1; j-- {
			if pl.Stores[nodes[j]][sp.Req.Item] {
				st.cut = j
				break
			}
		}
		byItem[sp.Req.Item] = append(byItem[sp.Req.Item], st)
	}
	residual := make([]float64, g.NumNodes())
	var candidates []graph.NodeID
	for v := 0; v < g.NumNodes(); v++ {
		residual[v] = s.CacheCap[v]
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			candidates = append(candidates, v)
		}
	}
	delta := func(v graph.NodeID, i int) float64 {
		var d float64
		for _, st := range byItem[i] {
			for j := len(st.nodes) - 1; j > st.cut; j-- {
				if st.nodes[j] == v {
					d += st.sp.Rate * (st.suffix[st.cut] - st.suffix[j])
					break
				}
			}
		}
		return d
	}
	// gains[c][i] is delta(candidates[c], i). A pick moves the cuts of
	// its own item's paths only, so only that item's column changes.
	gains := make([][]float64, len(candidates))
	for c, v := range candidates {
		gains[c] = make([]float64, s.NumItems)
		for i := range gains[c] {
			gains[c][i] = delta(v, i)
		}
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("placement: per-path greedy canceled: %w", err)
			}
		}
		bestV, bestI := -1, -1
		best := 0.0
		for c, v := range candidates {
			for i := 0; i < s.NumItems; i++ {
				if pl.Stores[v][i] || s.Size(i) > residual[v]+capSlack {
					continue
				}
				if d := gains[c][i]; d > best {
					best, bestV, bestI = d, v, i
				}
			}
		}
		if bestV < 0 {
			break
		}
		pl.Stores[bestV][bestI] = true
		residual[bestV] -= s.Size(bestI)
		for _, st := range byItem[bestI] {
			for j := len(st.nodes) - 1; j > st.cut; j-- {
				if st.nodes[j] == bestV {
					st.cut = j
					break
				}
			}
		}
		for c, v := range candidates {
			gains[c][bestI] = delta(v, bestI)
		}
	}
	return pl, nil
}

// zref is one auxiliary saving variable of the Eq. (15) LP: a (path, link)
// pair with its rate-weighted link cost and the x variables of the
// cacheable nodes downstream of the link.
type zref struct {
	weight float64 // rate * link cost
	idx    []int   // x variables of downstream nodes
}

// enumerateSavings builds the z variables of the Eq. (15) LP, one path per
// work item on the bounded pool: each path's (link, downstream-set) walk is
// independent, and the per-path lists are flattened in path order so the
// variable numbering is identical to the sequential enumeration no matter
// the worker count.
func enumerateSavings(ctx context.Context, s *Spec, paths []ServingPath, nodeIdx []int, xIdx func(vi, i int) int, workers int) ([]zref, error) {
	g := s.G
	perPath, err := par.Map(ctx, workers, len(paths), func(k int) ([]zref, error) {
		sp := &paths[k]
		if sp.Rate <= 0 {
			return nil, nil
		}
		pnodes := sp.Path.Nodes(g)
		item := sp.Req.Item
		// Walk links from the requester side: link j has downstream
		// nodes pnodes[j+1..end].
		var out []zref
		var downstream []int
		pinnedDown := false
		for j := len(sp.Path.Arcs) - 1; j >= 0; j-- {
			v := pnodes[j+1]
			if s.IsPinned(v) {
				pinnedDown = true
			} else if vi := nodeIdx[v]; vi >= 0 {
				downstream = append(downstream, xIdx(vi, item))
			}
			w := g.Arc(sp.Path.Arcs[j]).Cost
			if pinnedDown || w <= 0 {
				// Saving is constant 1 (pinned downstream) or
				// worthless; no variable needed.
				continue
			}
			// The z's of one path share downstream's array: each
			// sees its own prefix, which later appends never touch.
			out = append(out, zref{
				weight: sp.Rate * w,
				idx:    downstream[:len(downstream):len(downstream)],
			})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var zs []zref
	for _, list := range perPath {
		zs = append(zs, list...)
	}
	return zs, nil
}

// presolveSavings reduces the z variables of the Eq. (15) LP before the LP
// is built. Every z maximizes weight * z, weight > 0, subject to
// z <= min(1, sum_{v in D} x_v) with 0 <= x <= 1, so at any optimum z
// equals that bound, and the reduction keeps the feasible x-set and the
// optimal value:
//   - D empty: z is fixed at 0 and dropped;
//   - |D| = 1: z equals its x, so the weight moves onto x's objective
//     coefficient (xWeight) and z's row and column vanish;
//   - equal D: the z's are equal, so they merge into one column whose
//     weight is their sum.
//
// Weights are summed in the order of zs (path order), and the merged
// columns keep the order of their first occurrence, so the reduced LP is
// deterministic. A merged column's idx is D as a sorted list; zs is not
// modified (its idx lists may share arrays, see enumerateSavings).
func presolveSavings(zs []zref, nx int) (xWeight []float64, merged []zref) {
	xWeight = make([]float64, nx)
	col := make(map[string]int)
	var set []int
	var key []byte
	for _, z := range zs {
		switch len(z.idx) {
		case 0:
			continue
		case 1:
			xWeight[z.idx[0]] += z.weight
			continue
		}
		set = append(set[:0], z.idx...)
		sort.Ints(set)
		key = key[:0]
		for _, j := range set {
			key = binary.AppendUvarint(key, uint64(j))
		}
		if k, ok := col[string(key)]; ok {
			merged[k].weight += z.weight
			continue
		}
		col[string(key)] = len(merged)
		merged = append(merged, zref{weight: z.weight, idx: append([]int(nil), set...)})
	}
	return xWeight, merged
}

// cacheNodes lists the nodes holding x variables in the Eq. (15) LP (a
// positive capacity and not pinned) and maps every node to its position
// in that list, -1 for the others.
func cacheNodes(s *Spec) (nodes []graph.NodeID, nodeIdx []int) {
	nodeIdx = make([]int, s.G.NumNodes())
	for v := range nodeIdx {
		nodeIdx[v] = -1
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			nodeIdx[v] = len(nodes)
			nodes = append(nodes, v)
		}
	}
	return nodes, nodeIdx
}

// buildPerPathLP builds the presolved Eq. (15) LP: columns x_{v,i} for the
// cacheable nodes (row major, node then item), then one z column per
// distinct downstream set of two or more nodes (see presolveSavings); rows
// z <= sum_D x per z column, then one cache-capacity row per node.
func buildPerPathLP(ctx context.Context, s *Spec, paths []ServingPath, nodes []graph.NodeID, nodeIdx []int, workers int) (*lp.Problem, error) {
	nx := len(nodes) * s.NumItems
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	// One z variable per (path, link) whose saving is not already
	// guaranteed by a pinned node downstream of the link.
	zs, err := enumerateSavings(ctx, s, paths, nodeIdx, xIdx, workers)
	if err != nil {
		return nil, fmt.Errorf("placement: per-path enumeration: %w", err)
	}
	xWeight, zs := presolveSavings(zs, nx)
	prob := lp.NewProblem(nx + len(zs))
	prob.SetSense(lp.Maximize)
	for j, w := range xWeight {
		prob.SetObjectiveCoeff(j, w)
		prob.SetBounds(j, 0, 1)
	}
	row := lp.NewRowBuilder(prob)
	for zi, z := range zs {
		zv := nx + zi
		prob.SetObjectiveCoeff(zv, z.weight)
		prob.SetBounds(zv, 0, 1)
		row.Add(zv, 1)
		for _, j := range z.idx {
			row.Add(j, -1)
		}
		if err := row.Constrain(lp.LE, 0); err != nil {
			return nil, fmt.Errorf("placement: per-path LP: %w", err)
		}
	}
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			row.Add(xIdx(vi, i), 1)
		}
		if err := row.Constrain(lp.LE, s.CacheCap[v]); err != nil {
			return nil, fmt.Errorf("placement: per-path LP: %w", err)
		}
	}
	return prob, nil
}

// placePerPathLP solves the LP form of (15) and pipage-rounds the result.
// solver, when non-nil, warm-starts the LP from the previous round's basis.
func placePerPathLP(ctx context.Context, s *Spec, paths []ServingPath, workers int, solver *lp.Solver) (*Placement, error) {
	g := s.G
	nodes, nodeIdx := cacheNodes(s)
	prob, err := buildPerPathLP(ctx, s, paths, nodes, nodeIdx, workers)
	if err != nil {
		return nil, err
	}
	sol, err := solver.Solve(ctx, prob)
	if err != nil {
		return nil, fmt.Errorf("placement: per-path LP: %w", err)
	}

	// Pipage rounding: F (Eq. 14) is multilinear and separates across
	// items, so along a swap of (x_vi, x_vj) it is linear; moving toward
	// the coordinate with the larger partial derivative never decreases
	// F (the Section 4.3.1 rounding).
	xFrac := lputil.ExtractGrid(sol.X, 0, len(nodes), s.NumItems, lputil.Snap01(fracTol))
	// byNodeItem[v][i] lists the paths of item i that visit node v.
	pathsByItem := make([][]*ServingPath, s.NumItems)
	for k := range paths {
		sp := &paths[k]
		if sp.Rate > 0 && sp.Path.Len() > 0 {
			pathsByItem[sp.Req.Item] = append(pathsByItem[sp.Req.Item], sp)
		}
	}
	deriv := func(v graph.NodeID, i int, x [][]float64) float64 {
		// dF/dx_vi at the current fractional point.
		var d float64
		for _, sp := range pathsByItem[i] {
			pnodes := sp.Path.Nodes(g)
			pos := -1
			for j := 1; j < len(pnodes); j++ {
				if pnodes[j] == v {
					pos = j
					break
				}
			}
			if pos < 0 {
				continue
			}
			// Links upstream of v (j < pos) are saved if v caches
			// and nobody between v and the requester already serves.
			for j := 0; j < pos; j++ {
				prod := 1.0
				for t := j + 1; t < len(pnodes); t++ {
					if t == pos {
						continue
					}
					u := pnodes[t]
					switch {
					case s.IsPinned(u):
						prod = 0
					case nodeIdx[u] >= 0:
						prod *= 1 - x[nodeIdx[u]][i]
					}
				}
				d += sp.Rate * g.Arc(sp.Path.Arcs[j]).Cost * prod
			}
		}
		return d
	}
	for vi, v := range nodes {
		pipageRoundWithDeriv(xFrac, vi, s.CacheCap[v], s.NumItems, func(i int) float64 {
			return deriv(v, i, xFrac)
		})
	}
	pl := s.NewPlacement()
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			if xFrac[vi][i] > 0.5 {
				pl.Stores[v][i] = true
			}
		}
	}
	return pl, nil
}

// pipageRoundWithDeriv rounds node vi's row of x to integers, repeatedly
// shifting mass between two fractional coordinates toward the larger
// partial derivative (recomputed each step since F is not linear globally).
func pipageRoundWithDeriv(x [][]float64, vi int, cap_ float64, numItems int, deriv func(i int) float64) {
	row := x[vi]
	for {
		a, b := -1, -1
		for i, v := range row {
			if v > fracTol && v < 1-fracTol {
				if a < 0 {
					a = i
				} else {
					b = i
					break
				}
			}
		}
		if a < 0 {
			break
		}
		if b < 0 {
			row[a] = 1 // integer capacity always leaves room (Lemma 4.3)
			break
		}
		if deriv(a) < deriv(b) {
			a, b = b, a
		}
		total := row[a] + row[b]
		row[a] = math.Min(1, total)
		row[b] = total - row[a]
		for _, k := range []int{a, b} {
			if row[k] < fracTol {
				row[k] = 0
			} else if row[k] > 1-fracTol {
				row[k] = 1
			}
		}
	}
	// Spend leftover integral slack on the best unplaced items.
	var used float64
	for _, v := range row {
		used += v
	}
	if slack := int(cap_ - used + capSlack); slack > 0 {
		type pair struct {
			i int
			d float64
		}
		var zeros []pair
		for i, v := range row {
			if v == 0 {
				if d := deriv(i); d > 0 {
					zeros = append(zeros, pair{i, d})
				}
			}
		}
		sort.Slice(zeros, func(p, q int) bool { return zeros[p].d > zeros[q].d })
		for k := 0; k < slack && k < len(zeros); k++ {
			row[zeros[k].i] = 1
		}
	}
}
