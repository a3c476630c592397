package routing

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// diffInstance is one randomized differential-suite instance: a multi-cell
// network whose cell assignment is known by construction (rings joined by a
// few bridge links), a random catalog with extra replicas scattered around,
// and random demand.
type diffInstance struct {
	spec   *placement.Spec
	pl     *placement.Placement
	assign []int
}

// randomCellInstance builds a connected k-cell network: each cell is a
// bidirectional ring with random chords, consecutive cells are joined by
// bridge links. Finite capacities are scaled off the total demand so most
// instances are feasible for both the monolithic LP and the decomposition's
// strict recovery, while staying tight enough to exercise the coupling.
func randomCellInstance(r *rand.Rand) *diffInstance {
	k := 2 + r.Intn(2)     // 2-3 cells
	cellN := 5 + r.Intn(3) // 5-7 nodes per cell
	items := 2 + r.Intn(3) // 2-4 items
	n := k * cellN
	g := graph.New(n)
	assign := make([]int, n)
	cost := func() float64 { return 1 + 9*r.Float64() }
	for c := 0; c < k; c++ {
		base := c * cellN
		for v := 0; v < cellN; v++ {
			assign[base+v] = c
			w := (v + 1) % cellN
			g.AddArc(base+v, base+w, cost(), graph.Unlimited)
			g.AddArc(base+w, base+v, cost(), graph.Unlimited)
		}
		for chord := 0; chord < 2; chord++ {
			a, b := r.Intn(cellN), r.Intn(cellN)
			if a != b {
				g.AddArc(base+a, base+b, cost(), graph.Unlimited)
			}
		}
	}
	for c := 0; c+1 < k; c++ {
		bridges := 1 + r.Intn(2)
		for bi := 0; bi < bridges; bi++ {
			a := c*cellN + r.Intn(cellN)
			b := (c+1)*cellN + r.Intn(cellN)
			g.AddArc(a, b, cost(), graph.Unlimited)
			g.AddArc(b, a, cost(), graph.Unlimited)
		}
	}
	rates := make([][]float64, items)
	var total float64
	for i := range rates {
		rates[i] = make([]float64, n)
		for req := 0; req < 2+r.Intn(4); req++ {
			v := r.Intn(n)
			d := 1 + 4*r.Float64()
			rates[i][v] += d
			total += d
		}
	}
	// Cap a random subset of arcs. Each finite cap alone admits the whole
	// demand (keeping greedy recovery and the LP feasible) but their
	// interaction still binds when several items share a cheap corridor.
	for id := 0; id < g.NumArcs(); id++ {
		if r.Float64() < 0.4 {
			g.SetArcCap(id, total*(0.8+0.6*r.Float64()))
		}
	}
	s := &placement.Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{0},
		Rates:    rates,
	}
	pl := s.NewPlacement()
	for i := 0; i < items; i++ {
		for extra := 0; extra < r.Intn(3); extra++ {
			pl.Stores[r.Intn(n)][i] = true
		}
	}
	return &diffInstance{spec: s, pl: pl, assign: assign}
}

// solveMMSFPDecomposed is the differential suite's reference entry: the
// partition-aware solve run directly on a fixed placement with no heuristic
// fallbacks, returning the duality certificate. The monolithic MMSFP
// optimum (SolveMMSFPExact) lies in [LowerBound, PrimalCost] on every
// feasible instance.
func solveMMSFPDecomposed(s *placement.Spec, pl *placement.Placement, dec DecomposeOptions, workers int) (*DecomposeInfo, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var active []itemDemand
	var groups [][]graph.NodeID
	for _, d := range (*Reuse)(nil).baseDemand(s) {
		reps := pl.Replicas(d.item)
		if len(reps) == 0 {
			return nil, fmt.Errorf("routing: item %d has no replicas", d.item)
		}
		active = append(active, d)
		groups = append(groups, reps)
	}
	if len(active) == 0 {
		return &DecomposeInfo{}, nil
	}
	aux := graph.NewAuxiliary(s.G, groups)
	_, info, err := decomposedFlows(nil, aux, active, Options{Workers: workers, Decompose: &dec})
	return info, err
}

// TestDecomposedDifferential is the randomized differential suite: on every
// instance where both solvers run, the monolithic MMSFP optimum must lie in
// the decomposition's reported interval [LowerBound, PrimalCost] — which
// also bounds |PrimalCost - exact| by the reported Gap. At least 200
// instances must qualify.
func TestDecomposedDifferential(t *testing.T) {
	const (
		instances = 230
		needBoth  = 200
	)
	qualified := 0
	for seed := 0; seed < instances; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		inst := randomCellInstance(r)
		exact, exactErr := SolveMMSFPExact(nil, inst.spec, inst.pl)
		info, decErr := solveMMSFPDecomposed(inst.spec, inst.pl,
			DecomposeOptions{Assign: inst.assign, MaxIters: 8}, 2)
		if exactErr != nil || decErr != nil {
			// Infeasible draws (or recovery failures) are allowed — the
			// production path falls back to the monolithic pipeline — but
			// they must not eat the suite.
			continue
		}
		qualified++
		tol := 1e-6 * (1 + math.Abs(exact))
		if exact < info.LowerBound-tol {
			t.Errorf("seed %d: exact %v below reported lower bound %v", seed, exact, info.LowerBound)
		}
		if exact > info.PrimalCost+tol {
			t.Errorf("seed %d: exact %v above decomposed primal %v (primal must be feasible, hence >= OPT)",
				seed, exact, info.PrimalCost)
		}
		if math.Abs(info.Gap-(info.PrimalCost-info.LowerBound)) > tol {
			t.Errorf("seed %d: Gap %v inconsistent with primal %v - dual %v", seed, info.Gap, info.PrimalCost, info.LowerBound)
		}
		if info.PrimalCost-exact > info.Gap+tol {
			t.Errorf("seed %d: decomposed cost %v deviates from exact %v by more than the reported gap %v",
				seed, info.PrimalCost, exact, info.Gap)
		}
		if info.Cells < 2 || info.Iterations < 1 {
			t.Errorf("seed %d: implausible info %+v", seed, info)
		}
	}
	if qualified < needBoth {
		t.Fatalf("only %d instances qualified for the differential comparison, need %d", qualified, needBoth)
	}
}

// decomposedRouteSpec returns a deterministic two-cell bottleneck instance:
// every item is pinned only at the origin in cell 0, all demand sits in
// cell 1, and the cells are joined by a cheap bridge (capacity 4) and an
// expensive one (capacity 12). Each item's demand of 3 fits the cheap
// bridge alone, so the independent fast path routes all 12 units onto it
// and overshoots — forcing the coupled solvers — while the total bridge
// capacity still admits the full demand, so both the monolithic LP and the
// decomposition's strict recovery stay feasible.
func decomposedRouteSpec(t *testing.T) (*placement.Spec, *placement.Placement, []int) {
	t.Helper()
	const cellN = 5
	g := graph.New(2 * cellN)
	assign := make([]int, 2*cellN)
	for c := 0; c < 2; c++ {
		base := c * cellN
		for v := 0; v < cellN; v++ {
			assign[base+v] = c
			w := (v + 1) % cellN
			g.AddArc(base+v, base+w, 1, graph.Unlimited)
			g.AddArc(base+w, base+v, 1, graph.Unlimited)
		}
	}
	g.AddArc(1, cellN+1, 2, 4)  // cheap bridge
	g.AddArc(3, cellN+3, 6, 12) // expensive bridge
	const items = 4
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, 2*cellN)
		rates[i][cellN+i] = 3
	}
	s := &placement.Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, 2*cellN),
		Pinned:   []graph.NodeID{0},
		Rates:    rates,
	}
	return s, s.NewPlacement(), assign
}

func TestRouteDecomposed(t *testing.T) {
	s, pl, assign := decomposedRouteSpec(t)
	res, err := Route(nil, s, pl, Options{
		Fractional: true,
		Decompose:  &DecomposeOptions{Assign: assign, MinVars: 1, MaxIters: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodDecomposed {
		t.Fatalf("method = %q, want decomposed", res.Method)
	}
	if res.Decomposed == nil {
		t.Fatal("decomposed result carries no DecomposeInfo")
	}
	if res.Decomposed.Gap < 0 {
		t.Errorf("negative duality gap %v", res.Decomposed.Gap)
	}
	// The strict recovery never oversubscribes a link.
	if res.MaxUtilization > 1+1e-6 {
		t.Errorf("decomposed routing oversubscribes: max utilization %v", res.MaxUtilization)
	}
	// Demands are fully served.
	perReq := map[placement.Request]float64{}
	for _, sp := range res.Paths {
		perReq[sp.Req] += sp.Rate
	}
	for i, row := range s.Rates {
		for v, d := range row {
			if d <= 0 {
				continue
			}
			if got := perReq[placement.Request{Item: i, Node: v}]; math.Abs(got-d) > 1e-6*(1+d) {
				t.Errorf("request (%d,%d) served %v of %v", i, v, got, d)
			}
		}
	}
}

// TestRouteDecomposedWorkersIdentical pins worker-count independence: the
// cells solve in parallel but merge by index, so 1 worker and 4 workers
// must produce bit-identical results.
func TestRouteDecomposedWorkersIdentical(t *testing.T) {
	run := func(workers int) *Result {
		s, pl, assign := decomposedRouteSpec(t)
		res, err := Route(nil, s, pl, Options{
			Fractional: true,
			Workers:    workers,
			Decompose:  &DecomposeOptions{Assign: assign, MinVars: 1, MaxIters: 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(4)
	if a.Cost != b.Cost || a.Method != b.Method {
		t.Fatalf("workers 1 vs 4 diverge: cost %v/%v method %s/%s", a.Cost, b.Cost, a.Method, b.Method)
	}
	if *a.Decomposed != *b.Decomposed {
		t.Fatalf("workers 1 vs 4 diverge in info: %+v vs %+v", a.Decomposed, b.Decomposed)
	}
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("workers 1 vs 4 produce %d vs %d paths", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if a.Paths[i].Rate != b.Paths[i].Rate || a.Paths[i].Req != b.Paths[i].Req {
			t.Fatalf("path %d diverges: %+v vs %+v", i, a.Paths[i], b.Paths[i])
		}
	}
}

// TestRouteDecomposedReuse pins the decomposition cache: a second solve on
// the same instance keeps the cell skeletons (mutating demands in place)
// instead of rebuilding them. It also pins the one production caller where
// a warm lp.Solver pays: within the first call alone, the price-coordination
// iterations must re-solve the cell LPs from their previous bases.
func TestRouteDecomposedReuse(t *testing.T) {
	s, pl, assign := decomposedRouteSpec(t)
	reuse := NewReuse()
	opts := Options{
		Fractional: true,
		Reuse:      reuse,
		Decompose:  &DecomposeOptions{Assign: assign, MinVars: 1, MaxIters: 6},
	}
	first, err := Route(nil, s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	progs := reuse.dcProgs
	if progs == nil {
		t.Fatal("decomposition cache empty after a decomposed solve")
	}
	warm := 0
	for _, pr := range progs {
		warm += pr.solver.Stats().WarmHits
	}
	if warm == 0 {
		t.Error("cell LPs never warm-started within one decomposed Route call")
	}
	second, err := Route(nil, s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if &reuse.dcProgs[0] != &progs[0] {
		t.Error("cell skeletons rebuilt on a structurally identical re-solve")
	}
	if first.Cost != second.Cost || *first.Decomposed != *second.Decomposed {
		t.Errorf("reuse changed the answer: %v/%+v vs %v/%+v",
			first.Cost, first.Decomposed, second.Cost, second.Decomposed)
	}
}

// TestRouteDecomposedFallback pins the fail-open contract: a broken
// decomposition config (assignment for the wrong graph) must not fail the
// solve — the monolithic pipeline answers instead.
func TestRouteDecomposedFallback(t *testing.T) {
	s, pl, _ := decomposedRouteSpec(t)
	res, err := Route(nil, s, pl, Options{
		Fractional: true,
		Decompose:  &DecomposeOptions{Assign: []int{0, 1}, MinVars: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == MethodDecomposed {
		t.Fatalf("method = %q despite a broken assignment", res.Method)
	}
	if res.Decomposed != nil {
		t.Error("fallback result still carries DecomposeInfo")
	}
}

// TestRouteDecomposedBelowThreshold pins the size gate: small instances
// keep the monolithic pipeline even with Decompose configured.
func TestRouteDecomposedBelowThreshold(t *testing.T) {
	s := twoItemSpec(1)
	pl := s.NewPlacement()
	res, err := Route(nil, s, pl, Options{
		Fractional: true,
		Decompose:  &DecomposeOptions{Assign: []int{0, 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == MethodDecomposed {
		t.Fatalf("tiny instance decomposed (method %q); it should use the monolithic LP", res.Method)
	}
}

// TestBaseDemandSortedHoisted pins the sorted-sinks hoist: the cached
// demand sets carry their sink order, and the warm path neither re-sorts
// nor allocates.
func TestBaseDemandSortedHoisted(t *testing.T) {
	s, _, _ := decomposedRouteSpec(t)
	reuse := NewReuse()
	cold := reuse.baseDemand(s)
	for _, bd := range cold {
		if len(bd.sorted) != len(bd.sinks) {
			t.Fatalf("item %d: sorted order covers %d of %d sinks", bd.item, len(bd.sorted), len(bd.sinks))
		}
		for i := 1; i < len(bd.sorted); i++ {
			if bd.sorted[i-1] >= bd.sorted[i] {
				t.Fatalf("item %d: sink order not strictly ascending: %v", bd.item, bd.sorted)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		warm := reuse.baseDemand(s)
		if &warm[0] != &cold[0] {
			t.Fatal("warm baseDemand rebuilt the demand sets")
		}
	}); allocs > 0 {
		t.Errorf("warm baseDemand allocates %.0f objects per call, want 0", allocs)
	}
}

// BenchmarkRouteWarmReuse guards the per-solve allocation profile of the
// warm path (demand sets, auxiliary graph and LP skeletons all cached):
// regressions that push per-attachment work back into the per-item loop
// show up directly in allocs/op.
func BenchmarkRouteWarmReuse(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	inst := randomCellInstance(r)
	reuse := NewReuse()
	opts := Options{Fractional: true, Reuse: reuse}
	if _, err := Route(nil, inst.spec, inst.pl, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Route(nil, inst.spec, inst.pl, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteDecomposed measures the partition-aware path end to end
// (cell solves warm across iterations and calls).
func BenchmarkRouteDecomposed(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	inst := randomCellInstance(r)
	reuse := NewReuse()
	opts := Options{
		Fractional: true,
		Reuse:      reuse,
		Decompose:  &DecomposeOptions{Assign: inst.assign, MinVars: 1, MaxIters: 6},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Route(nil, inst.spec, inst.pl, opts); err != nil {
			b.Fatal(err)
		}
	}
}
