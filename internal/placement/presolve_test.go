package placement

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/lp"
)

// fullPerPathLP is the Eq. (15) LP as written, before the presolve: one z
// column and row per (path, link) saving, z <= sum_D x, then the
// cache-capacity rows. It is the oracle the presolved buildPerPathLP is
// checked against.
func fullPerPathLP(t *testing.T, s *Spec, paths []ServingPath, nodes []graph.NodeID, nodeIdx []int) (*lp.Problem, []zref) {
	t.Helper()
	nx := len(nodes) * s.NumItems
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	zs, err := enumerateSavings(nil, s, paths, nodeIdx, xIdx, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := lp.NewProblem(nx + len(zs))
	p.SetSense(lp.Maximize)
	for j := 0; j < nx; j++ {
		p.SetBounds(j, 0, 1)
	}
	for zi, z := range zs {
		zv := nx + zi
		p.SetObjectiveCoeff(zv, z.weight)
		p.SetBounds(zv, 0, 1)
		idx := []int{zv}
		val := []float64{1}
		for _, j := range z.idx {
			idx = append(idx, j)
			val = append(val, -1)
		}
		if err := p.AddConstraint(idx, val, lp.LE, 0); err != nil {
			t.Fatal(err)
		}
	}
	for vi, v := range nodes {
		var idx []int
		var val []float64
		for i := 0; i < s.NumItems; i++ {
			idx = append(idx, xIdx(vi, i))
			val = append(val, 1)
		}
		if err := p.AddConstraint(idx, val, lp.LE, s.CacheCap[v]); err != nil {
			t.Fatal(err)
		}
	}
	return p, zs
}

// backwardPath walks up to maxLen arcs backward from dst along incoming
// arcs, never entering dst, a node of avoid, or a node twice, and returns
// the path in source-to-dst order (possibly empty).
func backwardPath(rng *rand.Rand, g *graph.Graph, dst graph.NodeID, maxLen int, avoid []graph.NodeID) graph.Path {
	seen := map[graph.NodeID]bool{dst: true}
	for _, v := range avoid {
		seen[v] = true
	}
	var rev []graph.ArcID
	v := dst
	for len(rev) < maxLen {
		var cand []graph.ArcID
		for _, id := range g.In(v) {
			if !seen[g.Arc(id).From] {
				cand = append(cand, id)
			}
		}
		if len(cand) == 0 {
			break
		}
		id := cand[rng.Intn(len(cand))]
		rev = append(rev, id)
		v = g.Arc(id).From
		seen[v] = true
	}
	p := graph.Path{Arcs: make([]graph.ArcID, len(rev))}
	for k, id := range rev {
		p.Arcs[len(rev)-1-k] = id
	}
	return p
}

// presolveSpec draws a random per-path placement instance exercising every
// presolve case: pinned nodes in the middle of paths, zero-cost arcs,
// zero-rate paths, requests split over paths that share a suffix, and
// duplicated paths.
func presolveSpec(rng *rand.Rand) (*Spec, []ServingPath) {
	n := 5 + rng.Intn(6)
	items := 1 + rng.Intn(4)
	g := graph.New(n)
	cost := func() float64 {
		if rng.Float64() < 0.2 {
			return 0
		}
		return float64(1 + rng.Intn(9))
	}
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, cost(), graph.Unlimited)
	}
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, cost(), graph.Unlimited)
		}
	}
	s := &Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{n - 1},
		Rates:    make([][]float64, items),
	}
	if rng.Float64() < 0.4 {
		s.Pinned = append(s.Pinned, rng.Intn(n-1))
	}
	for v := 0; v < n; v++ {
		if !s.IsPinned(v) {
			s.CacheCap[v] = float64(rng.Intn(3))
		}
	}
	var paths []ServingPath
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := 0; v < n; v++ {
			if s.IsPinned(v) || rng.Float64() < 0.4 {
				continue
			}
			s.Rates[i][v] = 1 + 9*rng.Float64()
			req := Request{Item: i, Node: v}
			first := backwardPath(rng, g, v, 1+rng.Intn(5), nil)
			if first.Len() == 0 {
				continue
			}
			split := 1 + rng.Intn(3)
			for k := 0; k < split; k++ {
				p := first
				if k > 0 {
					// Share a suffix of the first path, then
					// branch off backward from its start.
					keep := 1 + rng.Intn(first.Len())
					suffix := first.Arcs[first.Len()-keep:]
					tail := graph.Path{Arcs: suffix}
					head := backwardPath(rng, g, tail.Source(g), rng.Intn(3), tail.Nodes(g))
					p = graph.Path{Arcs: append(append([]graph.ArcID(nil), head.Arcs...), suffix...)}
				}
				rate := s.Rates[i][v] / float64(split)
				if rng.Float64() < 0.1 {
					rate = 0
				}
				paths = append(paths, ServingPath{Req: req, Path: p, Rate: rate})
				if rng.Float64() < 0.15 {
					paths = append(paths, ServingPath{Req: req, Path: p, Rate: rate})
				}
			}
		}
	}
	return s, paths
}

// TestPresolveMatchesFullPerPathLP is the differential test of the Eq. (15)
// presolve: on randomized specs the presolved LP reaches the full LP's
// optimum, its x is feasible and optimal in the full LP, and the
// pipage-rounded placement keeps the paper's (1-1/e) guarantee against
// that optimum.
func TestPresolveMatchesFullPerPathLP(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(15))
	var empty, singletons, merged, reducedRows, fullRows int
	for trial := 0; trial < 250; trial++ {
		s, paths := presolveSpec(rng)
		nodes, nodeIdx := cacheNodes(s)
		nx := len(nodes) * s.NumItems
		full, zs := fullPerPathLP(t, s, paths, nodes, nodeIdx)
		reduced, err := buildPerPathLP(nil, s, paths, nodes, nodeIdx, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fullSol, err := full.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d full: %v", trial, err)
		}
		redSol, err := reduced.Solve(nil)
		if err != nil {
			t.Fatalf("trial %d reduced: %v", trial, err)
		}
		opt := fullSol.Objective
		scale := 1 + math.Abs(opt)
		if d := math.Abs(redSol.Objective - opt); d > tol*scale {
			t.Fatalf("trial %d: presolved optimum %.12g, full %.12g", trial, redSol.Objective, opt)
		}

		// The presolved x is feasible in the full LP ...
		x := redSol.X[:nx]
		for j, v := range x {
			if v < -tol || v > 1+tol {
				t.Fatalf("trial %d: x[%d] = %v outside [0, 1]", trial, j, v)
			}
		}
		for vi, v := range nodes {
			var used float64
			for i := 0; i < s.NumItems; i++ {
				used += x[vi*s.NumItems+i]
			}
			if used > s.CacheCap[v]+tol {
				t.Fatalf("trial %d: node %d holds %v > capacity %v", trial, v, used, s.CacheCap[v])
			}
		}
		// ... and optimal there, with every z at its bound min(1, sum_D x).
		var val float64
		for _, z := range zs {
			var sum float64
			for _, j := range z.idx {
				sum += x[j]
			}
			val += z.weight * math.Min(1, sum)
		}
		if d := math.Abs(val - opt); d > tol*scale {
			t.Fatalf("trial %d: presolved x scores %.12g in the full LP, optimum %.12g", trial, val, opt)
		}

		// The (1-1/e) guarantee of Section 4.3.1 as a measured property.
		pl, err := placePerPathLP(nil, s, paths, 1, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.CheckFeasible(pl); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got, bound := PerPathSaving(s, paths, pl), (1-1/math.E)*opt; got < bound-tol*scale {
			t.Fatalf("trial %d: rounded saving %.12g below (1-1/e) * LP optimum = %.12g", trial, got, bound)
		}

		removed := len(zs) - (reduced.NumVars() - nx)
		for _, z := range zs {
			switch len(z.idx) {
			case 0:
				empty++
				removed--
			case 1:
				singletons++
				removed--
			}
		}
		merged += removed
		reducedRows += reduced.NumConstraints()
		fullRows += full.NumConstraints()
	}
	// The randomized specs must actually exercise the presolve.
	if empty == 0 || singletons == 0 || merged == 0 {
		t.Fatalf("presolve not exercised: %d empty, %d singleton and %d merged z's", empty, singletons, merged)
	}
	t.Logf("z's: %d empty, %d singleton, %d merged; rows %d -> %d", empty, singletons, merged, fullRows, reducedRows)
}

// TestPresolveSavings pins the three reductions on a hand-built list.
func TestPresolveSavings(t *testing.T) {
	zs := []zref{
		{weight: 1, idx: []int{}},
		{weight: 2, idx: []int{3}},
		{weight: 4, idx: []int{0, 2}},
		{weight: 8, idx: []int{3}},
		{weight: 16, idx: []int{2, 0}},
		{weight: 32, idx: []int{1, 2}},
	}
	xWeight, merged := presolveSavings(zs, 4)
	if want := []float64{0, 0, 0, 10}; !reflect.DeepEqual(xWeight, want) {
		t.Fatalf("x weights %v, want %v", xWeight, want)
	}
	want := []zref{{weight: 20, idx: []int{0, 2}}, {weight: 32, idx: []int{1, 2}}}
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged z's %+v, want %+v", merged, want)
	}
}
