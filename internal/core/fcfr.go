// Package core holds the exact FC-FR linear program (SolveFCFR): Eq. (1)
// in its fully fractional regime, the lower bound every other regime is
// measured against. Its lputil subpackage factors the solve-and-extract
// plumbing every LP call site in the library shares. The Section 4.3.3
// alternating optimizer for general capacities is the "alternating"
// strategy (internal/strategy).
package core

import (
	"context"
	"fmt"
	"math"

	"jcr/internal/core/lputil"
	"jcr/internal/lp"
	"jcr/internal/placement"
)

// FCFRResult is the exact optimum of the fully fractional regime.
type FCFRResult struct {
	// Cost is the optimal objective (1a), a lower bound for every
	// regime.
	Cost float64
	// X[v][i] is the fractional caching decision (pinned nodes 1).
	X [][]float64
}

// SolveFCFR solves Eq. (1) exactly in the FC-FR regime (fractional caching
// and fractional routing), which is an LP (Section 3). The encoding is
// literal - per-request flow and source-selection variables - so it is
// intended for modest instance sizes (tests, examples, and reference
// bounds); the evaluation-scale experiments use it only where the paper
// does. A done ctx aborts the LP with an error wrapping ctx.Err(); nil
// means no cancellation.
func SolveFCFR(ctx context.Context, s *placement.Spec) (*FCFRResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	g := s.G
	n := g.NumNodes()
	m := g.NumArcs()
	reqs := s.Requests()
	if len(reqs) == 0 {
		return &FCFRResult{X: emptyX(s)}, nil
	}
	var nodes []int // cacheable decision nodes
	for v := 0; v < n; v++ {
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			nodes = append(nodes, v)
		}
	}
	nx := len(nodes) * s.NumItems
	nr := len(reqs) * n
	nf := len(reqs) * m
	p := lp.NewProblem(nx + nr + nf)
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	rIdx := func(k, v int) int { return nx + k*n + v }
	fIdx := func(k, e int) int { return nx + nr + k*m + e }
	for j := 0; j < nx; j++ {
		p.SetBounds(j, 0, 1)
	}
	cacheIdxOf := make([]int, n)
	for v := range cacheIdxOf {
		cacheIdxOf[v] = -1
	}
	for vi, v := range nodes {
		cacheIdxOf[v] = vi
	}
	row := lp.NewRowBuilder(p)
	for k, rq := range reqs {
		lam := s.Rates[rq.Item][rq.Node]
		for e := 0; e < m; e++ {
			p.SetBounds(fIdx(k, e), 0, 1)
			p.SetObjectiveCoeff(fIdx(k, e), lam*g.Arc(e).Cost)
		}
		// (1d): sum_v r = 1.
		for v := 0; v < n; v++ {
			row.Add(rIdx(k, v), 1)
		}
		if err := row.Constrain(lp.EQ, 1); err != nil {
			return nil, err
		}
		// (1e) and variable classes for r.
		for v := 0; v < n; v++ {
			switch {
			case s.IsPinned(v):
				p.SetBounds(rIdx(k, v), 0, 1)
			case cacheIdxOf[v] >= 0:
				p.SetBounds(rIdx(k, v), 0, 1)
				row.Add(rIdx(k, v), 1)
				row.Add(xIdx(cacheIdxOf[v], rq.Item), -1)
				if err := row.Constrain(lp.LE, 0); err != nil {
					return nil, err
				}
			default:
				p.SetBounds(rIdx(k, v), 0, 0)
			}
		}
		// (1c): flow conservation per node (self-loop arcs coalesce to a
		// zero coefficient via the row builder).
		for u := 0; u < n; u++ {
			for _, e := range g.Out(u) {
				row.Add(fIdx(k, e), 1)
			}
			for _, e := range g.In(u) {
				row.Add(fIdx(k, e), -1)
			}
			row.Add(rIdx(k, u), -1)
			rhs := 0.0
			if u == rq.Node {
				rhs = -1
			}
			if err := row.Constrain(lp.EQ, rhs); err != nil {
				return nil, err
			}
		}
	}
	// (1b): link capacities.
	for e := 0; e < m; e++ {
		c := g.Arc(e).Cap
		if math.IsInf(c, 1) {
			continue
		}
		for k, rq := range reqs {
			row.Add(fIdx(k, e), s.Rates[rq.Item][rq.Node])
		}
		if err := row.Constrain(lp.LE, c); err != nil {
			return nil, err
		}
	}
	// (1f): cache capacities (sizes for the Section 5 model).
	for vi, v := range nodes {
		for i := 0; i < s.NumItems; i++ {
			row.Add(xIdx(vi, i), s.Size(i))
		}
		if err := row.Constrain(lp.LE, s.CacheCap[v]); err != nil {
			return nil, err
		}
	}
	sol, err := p.Solve(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: FC-FR LP: %w", err)
	}
	res := &FCFRResult{Cost: sol.Objective, X: emptyX(s)}
	xg := lputil.ExtractGrid(sol.X, 0, len(nodes), s.NumItems, nil)
	for vi, v := range nodes {
		copy(res.X[v], xg[vi])
	}
	return res, nil
}

func emptyX(s *placement.Spec) [][]float64 {
	x := make([][]float64, s.G.NumNodes())
	for v := range x {
		x[v] = make([]float64, s.NumItems)
		if s.IsPinned(v) {
			for i := range x[v] {
				x[v][i] = 1
			}
		}
	}
	return x
}
