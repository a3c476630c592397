package placement

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jcr/internal/core/lputil"
	"jcr/internal/graph"
	"jcr/internal/lp"
)

// Alg1Result carries Algorithm 1's outputs.
type Alg1Result struct {
	Placement *Placement
	// Sources maps each request to its RNR source under the placement.
	Sources map[Request]graph.NodeID
	// Cost is the total routing cost under route-to-nearest-replica.
	Cost float64
	// LPValue is the optimal value of the auxiliary LP, an upper bound
	// on the achievable saving (useful for empirical approximation-ratio
	// checks).
	LPValue float64
}

// Alg1Options tune Algorithm 1's implementation details.
type Alg1Options struct {
	// DisablePolish skips the monotone local-search pass after pipage
	// rounding, leaving the textbook algorithm (used by the ablation
	// experiment; the guarantee is identical, the practice worse).
	DisablePolish bool
}

// Alg1 runs the paper's Algorithm 1: integral caching and source selection
// under unlimited link capacities with a (1-1/e) approximation guarantee.
// It solves the auxiliary LP (7) in an equivalent reduced form (the r and z
// variables are eliminated analytically; see DESIGN.md Section 3.1),
// recovers an optimal fractional source selection, rounds the caching
// variables by pipage (Eqs. 8-9), and finally serves every request from its
// nearest replica.
//
// The spec must use homogeneous item sizes (ItemSize nil); Section 5's
// greedy algorithm handles heterogeneous sizes. opts tunes the
// implementation (the zero value is the paper's algorithm with the polish
// pass). A done ctx aborts the LP with an error wrapping ctx.Err(); nil
// means no cancellation.
func Alg1(ctx context.Context, s *Spec, dist [][]float64, opts Alg1Options) (*Alg1Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.ItemSize != nil {
		return nil, fmt.Errorf("placement: Alg1 requires homogeneous item sizes; use Greedy for heterogeneous sizes")
	}
	wmax := graph.MaxFinite(dist)
	if wmax <= 0 {
		return nil, fmt.Errorf("placement: degenerate distance matrix (wmax = %v)", wmax)
	}
	reqs := s.Requests()

	// Cacheable decision nodes: positive capacity and not pinned.
	var nodes []graph.NodeID
	for v := 0; v < s.G.NumNodes(); v++ {
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			nodes = append(nodes, v)
		}
	}

	// Reduced LP variables: x_(v,i) for cacheable v, then y_(i,s).
	nx := len(nodes) * s.NumItems
	prob := lp.NewProblem(nx + len(reqs))
	prob.SetSense(lp.Maximize)
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	row := lp.NewRowBuilder(prob)
	for k, rq := range reqs {
		y := nx + k
		prob.SetObjectiveCoeff(y, s.Rates[rq.Item][rq.Node]*wmax)
		prob.SetBounds(y, 0, 1)
		// y <= sum_v a_vis x_vi + pinned contribution.
		row.Add(y, 1)
		var pinnedBase float64
		for vi, v := range nodes {
			if a := gain(dist, v, rq.Node, wmax); a > 0 {
				row.Add(xIdx(vi, rq.Item), -a)
			}
		}
		for _, v := range s.Pinned {
			pinnedBase += gain(dist, v, rq.Node, wmax)
		}
		if err := row.Constrain(lp.LE, pinnedBase); err != nil {
			return nil, fmt.Errorf("placement: auxiliary LP: %w", err)
		}
	}
	for j := 0; j < nx; j++ {
		prob.SetBounds(j, 0, 1)
	}
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			row.Add(xIdx(vi, i), 1)
		}
		if err := row.Constrain(lp.LE, s.CacheCap[v]); err != nil {
			return nil, fmt.Errorf("placement: auxiliary LP: %w", err)
		}
	}
	sol, err := prob.Solve(ctx)
	if err != nil {
		return nil, fmt.Errorf("placement: auxiliary LP: %w", err)
	}

	// Recover an optimal fractional source selection r~ for the pipage
	// weights: fill each request greedily across nodes in descending
	// gain, each node v taking at most x_vi * a_vis.
	xFrac := lputil.ExtractGrid(sol.X, 0, len(nodes), s.NumItems, lputil.Clamp01)
	// weights[vi][i] accumulates sum_s lambda * r~ * (wmax - w_{v->s}),
	// the pipage comparison quantity of Eqs. (8)-(9).
	weights := make([][]float64, len(nodes))
	for vi := range weights {
		weights[vi] = make([]float64, s.NumItems)
	}
	type candidate struct {
		vi int // index into nodes, or -1 for a pinned node
		a  float64
	}
	for _, rq := range reqs {
		var cands []candidate
		for vi, v := range nodes {
			if a := gain(dist, v, rq.Node, wmax); a > 0 && xFrac[vi][rq.Item] > 0 {
				cands = append(cands, candidate{vi: vi, a: a})
			}
		}
		for _, v := range s.Pinned {
			if a := gain(dist, v, rq.Node, wmax); a > 0 {
				cands = append(cands, candidate{vi: -1, a: a})
			}
		}
		sort.Slice(cands, func(x, y int) bool { return cands[x].a > cands[y].a })
		remaining := 1.0
		for _, c := range cands {
			if remaining <= gainEps {
				break
			}
			cap_ := c.a // pinned: x=1
			if c.vi >= 0 {
				cap_ = xFrac[c.vi][rq.Item] * c.a
			}
			r := math.Min(remaining, cap_)
			if c.vi >= 0 {
				weights[c.vi][rq.Item] += s.Rates[rq.Item][rq.Node] * r * c.a * wmax
			}
			remaining -= r
		}
		// Any residual r mass is placed on the best pinned node; it
		// contributes no pipage weight for cacheable nodes.
	}

	// Pipage rounding per node (Lemma 4.3).
	for vi := range nodes {
		pipageRound(xFrac[vi], weights[vi], s.CacheCap[nodes[vi]])
	}

	pl := s.NewPlacement()
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			if xFrac[vi][i] > 0.5 {
				pl.Stores[v][i] = true
			}
		}
	}
	// Monotone local-search polish: fill leftover slots and apply
	// single-item swaps while the true RNR saving improves. Every step
	// only increases F_RNR, so Theorem 4.4's (1-1/e) guarantee is
	// preserved while the practical gap to the LP bound shrinks.
	if !opts.DisablePolish {
		polishPlacement(s, dist, wmax, pl, nodes)
	}
	src, cost, err := s.RNRSources(pl, dist)
	if err != nil {
		return nil, err
	}
	return &Alg1Result{Placement: pl, Sources: src, Cost: cost, LPValue: sol.Objective}, nil
}

// gain is a_vis * wmax = (wmax - w_{v->s}), clamped at zero and normalized
// later; unreachable pairs contribute nothing. Returned in the normalized
// [0,1] form a_vis = (wmax - w)/wmax used by the LP.
func gain(dist [][]float64, v, sNode graph.NodeID, wmax float64) float64 {
	d := dist[v][sNode]
	if math.IsInf(d, 1) || d >= wmax {
		return 0
	}
	return (wmax - d) / wmax
}

// pipageRound rounds the fractional vector x (one node's caching decision)
// to integers without decreasing the linear proxy objective
// sum_i weights[i]*x[i], preserving sum_i x_i <= cap (Eqs. 8-9). Because
// the objective is linear in any two coordinates, shifting mass toward the
// larger weight never decreases it (the proof of Lemma 4.3).
func pipageRound(x, weights []float64, cap_ float64) {
	frac := func() (int, int) {
		a := -1
		for i, v := range x {
			if v > fracTol && v < 1-fracTol {
				if a < 0 {
					a = i
				} else {
					return a, i
				}
			}
		}
		return a, -1
	}
	for {
		i, j := frac()
		if i < 0 {
			break
		}
		if j < 0 {
			// A single fractional variable: integer capacity leaves
			// room to round it up (Lemma 4.3), which never hurts the
			// monotone objective.
			x[i] = 1
			break
		}
		if weights[i] < weights[j] {
			i, j = j, i
		}
		// Shift mass from j to i (Eq. 8).
		total := x[i] + x[j]
		x[i] = math.Min(1, total)
		x[j] = total - x[i]
		// Snap near-integers to avoid float drift.
		for _, k := range []int{i, j} {
			if x[k] < fracTol {
				x[k] = 0
			} else if x[k] > 1-fracTol {
				x[k] = 1
			}
		}
	}
	// Use any remaining integer slack: rounding extra zeros up is not
	// part of Lemma 4.3 but never decreases the monotone objective.
	var used float64
	for _, v := range x {
		used += v
	}
	if slack := int(cap_ - used + capSlack); slack > 0 {
		type pair struct {
			i int
			w float64
		}
		var zeros []pair
		for i, v := range x {
			if v == 0 && weights[i] > 0 {
				zeros = append(zeros, pair{i, weights[i]})
			}
		}
		sort.Slice(zeros, func(a, b int) bool { return zeros[a].w > zeros[b].w })
		for k := 0; k < slack && k < len(zeros); k++ {
			x[zeros[k].i] = 1
		}
	}
}
