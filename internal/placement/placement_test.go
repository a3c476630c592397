package placement

import (
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/lp"
)

// lineSpec builds a 4-node line: origin(3) - 2 - 1 - 0, with requests at
// node 0 and a cache at node 1.
func lineSpec() *Spec {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, graph.Unlimited)
	g.AddEdge(1, 2, 2, graph.Unlimited)
	g.AddEdge(2, 3, 10, graph.Unlimited)
	s := &Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 1, 0, 0},
		Pinned:   []graph.NodeID{3},
		Rates:    make([][]float64, 3),
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, 4)
	}
	s.Rates[0][0] = 10 // hot item
	s.Rates[1][0] = 1
	s.Rates[2][0] = 0.1
	return s
}

func TestSpecValidate(t *testing.T) {
	s := lineSpec()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *s
	bad.CacheCap = []float64{1}
	if bad.Validate() == nil {
		t.Error("wrong CacheCap length accepted")
	}
	bad2 := *s
	bad2.Rates = make([][]float64, 1)
	if bad2.Validate() == nil {
		t.Error("wrong Rates length accepted")
	}
	bad3 := *s
	bad3.Rates = [][]float64{{0, 0, 0, -1}, make([]float64, 4), make([]float64, 4)}
	if bad3.Validate() == nil {
		t.Error("negative rate accepted")
	}
	bad4 := *s
	bad4.Pinned = []graph.NodeID{9}
	if bad4.Validate() == nil {
		t.Error("out-of-range pinned node accepted")
	}
}

func TestAlg1PicksHotItem(t *testing.T) {
	s := lineSpec()
	dist := graph.AllPairs(s.G)
	res, err := Alg1(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Has(1, 0) {
		t.Error("Alg1 should cache the hot item 0 at node 1")
	}
	if err := s.CheckFeasible(res.Placement); err != nil {
		t.Error(err)
	}
	// Cost: item 0 from node 1 (cost 1), items 1, 2 from origin (13).
	want := 10*1.0 + 1*13.0 + 0.1*13.0
	if math.Abs(res.Cost-want) > 1e-6 {
		t.Errorf("cost = %v, want %v", res.Cost, want)
	}
	if src := res.Sources[Request{Item: 0, Node: 0}]; src != 1 {
		t.Errorf("hot item served from %d, want 1", src)
	}
}

func TestAlg1RejectsHeterogeneous(t *testing.T) {
	s := lineSpec()
	s.ItemSize = []float64{1, 2, 3}
	if _, err := Alg1(s, graph.AllPairs(s.G)); err == nil {
		t.Error("Alg1 accepted heterogeneous sizes")
	}
}

// directLP7 encodes the paper's LP (7) literally: variables x, r, z.
func directLP7(s *Spec, dist [][]float64, wmax float64) float64 {
	n := s.G.NumNodes()
	reqs := s.Requests()
	// Variable layout: x (cacheable nodes x items), r and z per
	// (request, node) over all nodes.
	var nodes []graph.NodeID
	for v := 0; v < n; v++ {
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			nodes = append(nodes, v)
		}
	}
	nx := len(nodes) * s.NumItems
	nr := len(reqs) * n
	p := lp.NewProblem(nx + 2*nr)
	p.SetSense(lp.Maximize)
	xIdx := func(vi, i int) int { return vi*s.NumItems + i }
	rIdx := func(k, v int) int { return nx + k*n + v }
	zIdx := func(k, v int) int { return nx + nr + k*n + v }
	for j := 0; j < nx+2*nr; j++ {
		p.SetBounds(j, 0, 1)
	}
	for k, rq := range reqs {
		lam := s.Rates[rq.Item][rq.Node]
		// sum_v r = 1
		idx := make([]int, n)
		val := make([]float64, n)
		for v := 0; v < n; v++ {
			idx[v], val[v] = rIdx(k, v), 1
		}
		p.AddConstraint(idx, val, lp.EQ, 1)
		for v := 0; v < n; v++ {
			p.SetObjectiveCoeff(zIdx(k, v), lam*wmax)
			// z <= 1 - r + x*a. Pinned nodes have x=1; nodes
			// without caches have x=0.
			a := gain(dist, v, rq.Node, wmax)
			cIdx := []int{zIdx(k, v), rIdx(k, v)}
			cVal := []float64{1, 1}
			rhs := 1.0
			if s.IsPinned(v) {
				rhs += a
			} else {
				for vi, u := range nodes {
					if u == v {
						cIdx = append(cIdx, xIdx(vi, rq.Item))
						cVal = append(cVal, -a)
					}
				}
			}
			p.AddConstraint(cIdx, cVal, lp.LE, rhs)
		}
	}
	for vi, v := range nodes {
		idx := make([]int, s.NumItems)
		val := make([]float64, s.NumItems)
		for i := 0; i < s.NumItems; i++ {
			idx[i], val[i] = xIdx(vi, i), 1
		}
		p.AddConstraint(idx, val, lp.LE, s.CacheCap[v])
	}
	sol, err := p.Solve()
	if err != nil {
		panic(err)
	}
	return sol.Objective
}

func randomSpec(rng *rand.Rand, nNodes, nItems int) *Spec {
	g := graph.New(nNodes)
	for v := 0; v+1 < nNodes; v++ {
		g.AddEdge(v, v+1, float64(1+rng.Intn(9)), graph.Unlimited)
	}
	for e := 0; e < nNodes; e++ {
		u, v := rng.Intn(nNodes), rng.Intn(nNodes)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(9)), graph.Unlimited)
		}
	}
	s := &Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, nNodes),
		Pinned:   []graph.NodeID{nNodes - 1},
		Rates:    make([][]float64, nItems),
	}
	for v := 0; v < nNodes-1; v++ {
		s.CacheCap[v] = float64(rng.Intn(2))
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, nNodes)
		for v := 0; v < nNodes-1; v++ {
			if rng.Float64() < 0.5 {
				s.Rates[i][v] = 1 + 9*rng.Float64()
			}
		}
	}
	return s
}

func TestReducedLPMatchesDirectLP7(t *testing.T) {
	// DESIGN.md 3.1: the reduced LP optimum plus the analytic constant
	// (|V|-1) * wmax * sum(lambda) equals the direct LP (7) optimum.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 15; trial++ {
		s := randomSpec(rng, 4+rng.Intn(3), 2+rng.Intn(2))
		dist := graph.AllPairs(s.G)
		wmax := graph.MaxFinite(dist)
		if wmax <= 0 {
			continue
		}
		res, err := Alg1(s, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var lamSum float64
		for _, rq := range s.Requests() {
			lamSum += s.Rates[rq.Item][rq.Node]
		}
		direct := directLP7(s, dist, wmax)
		reducedPlusConst := res.LPValue + float64(s.G.NumNodes()-1)*wmax*lamSum
		if math.Abs(direct-reducedPlusConst) > 1e-4*(1+math.Abs(direct)) {
			t.Fatalf("trial %d: direct LP(7) = %v, reduced + const = %v", trial, direct, reducedPlusConst)
		}
	}
}

func TestAlg1ApproximationGuarantee(t *testing.T) {
	// Theorem 4.4: F(x, r) >= (1 - 1/e) F(x*, r*), where
	// F = saving + (|V|-1) * wmax * sum(lambda).
	rng := rand.New(rand.NewSource(57))
	for trial := 0; trial < 15; trial++ {
		s := randomSpec(rng, 4+rng.Intn(2), 2+rng.Intn(2))
		dist := graph.AllPairs(s.G)
		wmax := graph.MaxFinite(dist)
		if wmax <= 0 {
			continue
		}
		res, err := Alg1(s, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var lamSum float64
		for _, rq := range s.Requests() {
			lamSum += s.Rates[rq.Item][rq.Node]
		}
		constant := float64(s.G.NumNodes()-1) * wmax * lamSum
		got := s.SavingRNR(res.Placement, dist, wmax) + constant
		opt := BruteForceBestSaving(s, dist) + constant
		if got < (1-1/math.E)*opt-1e-6 {
			t.Fatalf("trial %d: F = %v below (1-1/e) * optimum %v", trial, got, opt)
		}
	}
}

func TestSavingRNRSubmodular(t *testing.T) {
	// Lemma 4.1: monotonicity and submodularity of the saving.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		s := randomSpec(rng, 5, 3)
		// Give every node room so arbitrary placements are valid.
		for v := range s.CacheCap {
			s.CacheCap[v] = float64(s.NumItems)
		}
		dist := graph.AllPairs(s.G)
		wmax := graph.MaxFinite(dist)
		p1 := s.NewPlacement() // X1 subset of X2
		p2 := s.NewPlacement()
		for v := 0; v < s.G.NumNodes()-1; v++ {
			for i := 0; i < s.NumItems; i++ {
				r := rng.Float64()
				if r < 0.25 {
					p1.Stores[v][i] = true
					p2.Stores[v][i] = true
				} else if r < 0.5 {
					p2.Stores[v][i] = true
				}
			}
		}
		// A fresh element not in X2.
		var fv, fi = -1, -1
		for v := 0; v < s.G.NumNodes()-1 && fv < 0; v++ {
			for i := 0; i < s.NumItems; i++ {
				if !p2.Stores[v][i] {
					fv, fi = v, i
					break
				}
			}
		}
		if fv < 0 {
			continue
		}
		f1 := s.SavingRNR(p1, dist, wmax)
		f2 := s.SavingRNR(p2, dist, wmax)
		if f2 < f1-1e-9 {
			t.Fatalf("trial %d: monotonicity violated: F(X2)=%v < F(X1)=%v", trial, f2, f1)
		}
		p1.Stores[fv][fi] = true
		p2.Stores[fv][fi] = true
		d1 := s.SavingRNR(p1, dist, wmax) - f1
		d2 := s.SavingRNR(p2, dist, wmax) - f2
		if d1 < d2-1e-9 {
			t.Fatalf("trial %d: submodularity violated: marginal on X1 %v < on X2 %v", trial, d1, d2)
		}
	}
}

func TestGreedyMatroidRatio(t *testing.T) {
	// Homogeneous sizes: greedy saving >= 1/2 optimum [29].
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 12; trial++ {
		s := randomSpec(rng, 5, 2)
		dist := graph.AllPairs(s.G)
		res, err := Greedy(s, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.CheckFeasible(res.Placement); err != nil {
			t.Fatal(err)
		}
		opt := BruteForceBestSaving(s, dist)
		if res.Saving < opt/2-1e-9 {
			t.Fatalf("trial %d: greedy saving %v < half of optimum %v", trial, res.Saving, opt)
		}
		wmax := graph.MaxFinite(dist)
		if got := s.SavingRNR(res.Placement, dist, wmax); math.Abs(got-res.Saving) > 1e-6*(1+got) {
			t.Fatalf("trial %d: reported saving %v != recomputed %v", trial, res.Saving, got)
		}
	}
}

func TestGreedyHeterogeneousRatio(t *testing.T) {
	// Theorem 5.2: saving >= 1/(1+p) of optimum, p = ceil(bmax/bmin).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		s := randomSpec(rng, 5, 3)
		s.ItemSize = []float64{1, 2, 3}
		for v := range s.CacheCap {
			if s.CacheCap[v] > 0 {
				s.CacheCap[v] = float64(1 + rng.Intn(4))
			}
		}
		dist := graph.AllPairs(s.G)
		res, err := Greedy(s, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := s.CheckFeasible(res.Placement); err != nil {
			t.Fatal(err)
		}
		opt := BruteForceBestSaving(s, dist)
		p := 3.0 // ceil(3/1)
		if res.Saving < opt/(1+p)-1e-9 {
			t.Fatalf("trial %d: greedy saving %v < 1/(1+p) of optimum %v", trial, res.Saving, opt)
		}
	}
}

func TestGreedyUnitSizeOverflows(t *testing.T) {
	// Heterogeneous files + slot-based capacity can exceed byte capacity
	// (the Fig. 5 infeasibility of the equal-size baselines).
	s := lineSpec()
	s.ItemSize = []float64{5, 5, 5}
	s.CacheCap = []float64{0, 6, 0, 0} // 6 MB, barely one item
	slotCap := []float64{0, 2, 0, 0}   // but 2 slots
	dist := graph.AllPairs(s.G)
	res, err := GreedyUnitSize(s, dist, slotCap)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := s.MaxOccupancyRatio(res.Placement); ratio <= 1 {
		t.Errorf("expected cache overflow, occupancy ratio = %v", ratio)
	}
	if s.CheckFeasible(res.Placement) == nil {
		t.Error("overflowing placement reported feasible")
	}
}

func TestPlacePerPathGreedyVsLP(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		s := randomSpec(rng, 5, 2)
		origin := s.Pinned[0]
		paths, err := ShortestServingPaths(s, origin)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plLP, err := PlacePerPath(nil, s, paths, PerPathOptions{Method: PerPathLP})
		if err != nil {
			t.Fatalf("trial %d LP: %v", trial, err)
		}
		plG, err := PlacePerPath(nil, s, paths, PerPathOptions{Method: PerPathGreedy})
		if err != nil {
			t.Fatalf("trial %d greedy: %v", trial, err)
		}
		for _, pl := range []*Placement{plLP, plG} {
			if err := s.CheckFeasible(pl); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		sLP := PerPathSaving(s, paths, plLP)
		sG := PerPathSaving(s, paths, plG)
		// Both should be within a factor ~2 of each other; the LP
		// should not be drastically worse than greedy.
		if sLP < sG*0.5-1e-9 {
			t.Fatalf("trial %d: LP saving %v far below greedy %v", trial, sLP, sG)
		}
		// Saving + cost = baseline cost with no caches.
		empty := s.NewPlacement()
		for v := range empty.Stores {
			if !s.IsPinned(v) {
				for i := range empty.Stores[v] {
					empty.Stores[v][i] = false
				}
			}
		}
	}
}

func TestPerPathSavingPlusCostIsConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := randomSpec(rng, 6, 3)
	origin := s.Pinned[0]
	paths, err := ShortestServingPaths(s, origin)
	if err != nil {
		t.Fatal(err)
	}
	var full float64
	for k := range paths {
		full += paths[k].Rate * paths[k].Path.Cost(s.G)
	}
	pl, err := PlacePerPath(nil, s, paths, PerPathOptions{Method: PerPathGreedy})
	if err != nil {
		t.Fatal(err)
	}
	sv := PerPathSaving(s, paths, pl)
	cost := PerPathCost(s, paths, pl)
	if math.Abs(sv+cost-full) > 1e-6*(1+full) {
		t.Errorf("saving %v + cost %v != full path cost %v", sv, cost, full)
	}
}

func TestSP38AndEvaluateServing(t *testing.T) {
	s := lineSpec()
	pl, paths, err := SP38(s, 3, PerPathAuto, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Has(1, 0) {
		t.Error("SP38 should cache the hot item at node 1 (on the path)")
	}
	cost, loads, _ := EvaluateServing(s, paths, pl)
	// Hot item served from node 1 over link 1->0 (cost 1): 10*1. Items
	// 1, 2 come from the origin over 13-cost path: (1+0.1)*13.
	want := 10*1.0 + 1.1*13
	if math.Abs(cost-want) > 1e-9 {
		t.Errorf("serving cost = %v, want %v", cost, want)
	}
	var totalLoad float64
	for _, l := range loads {
		totalLoad += l
	}
	if totalLoad <= 0 {
		t.Error("no load recorded")
	}
}

func TestKSP3(t *testing.T) {
	s := lineSpec()
	res, err := KSP3(s, 3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckFeasible(res.Placement); err != nil {
		t.Fatal(err)
	}
	if len(res.Chosen) != len(s.Requests()) {
		t.Fatalf("%d chosen paths for %d requests", len(res.Chosen), len(s.Requests()))
	}
	for _, sp := range res.Chosen {
		if sp.Path.Dest(s.G) != sp.Req.Node {
			t.Errorf("chosen path for %+v ends at %d", sp.Req, sp.Path.Dest(s.G))
		}
	}
	if _, err := KSP3(s, 3, 0, nil); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestGlobalRNRServing(t *testing.T) {
	s := lineSpec()
	dist := graph.AllPairs(s.G)
	res, err := Greedy(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := GlobalRNRServing(s, res.Placement, dist)
	if err != nil {
		t.Fatal(err)
	}
	cost, _, _ := EvaluateServing(s, paths, res.Placement)
	// RNR serving cost must match the RNR source-selection cost.
	if math.Abs(cost-res.Cost) > 1e-9 {
		t.Errorf("serving cost %v != RNR cost %v", cost, res.Cost)
	}
}

func TestMaxOccupancyRatio(t *testing.T) {
	s := lineSpec()
	s.ItemSize = []float64{3, 4, 5}
	s.CacheCap = []float64{0, 6, 0, 0}
	pl := s.NewPlacement()
	pl.Stores[1][0] = true
	if got := s.MaxOccupancyRatio(pl); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ratio = %v, want 0.5", got)
	}
	pl.Stores[1][1] = true
	if got := s.MaxOccupancyRatio(pl); math.Abs(got-7.0/6) > 1e-12 {
		t.Errorf("ratio = %v, want 7/6", got)
	}
}
