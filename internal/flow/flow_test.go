package flow

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/lp"
)

func TestMinCostFlowSimple(t *testing.T) {
	// Two parallel routes: cheap with cap 5, expensive with cap 10.
	g := graph.New(2)
	g.AddArc(0, 1, 1, 5)
	g.AddArc(0, 1, 3, 10)

	r, err := MinCostFlow(nil, g, 0, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-8) > 1e-9 {
		t.Errorf("value = %v, want 8", r.Value)
	}
	if math.Abs(r.Cost-(5*1+3*3)) > 1e-9 {
		t.Errorf("cost = %v, want 14", r.Cost)
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// 0->1->3 cost 2, 0->2->3 cost 10; both cap 4; demand 6.
	g := graph.New(4)
	g.AddArc(0, 1, 1, 4)
	g.AddArc(1, 3, 1, 4)
	g.AddArc(0, 2, 5, 4)
	g.AddArc(2, 3, 5, 4)
	r, err := MinCostFlow(nil, g, 0, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Cost-(4*2+2*10)) > 1e-9 {
		t.Errorf("cost = %v, want 28", r.Cost)
	}
}

func TestMinCostFlowInsufficient(t *testing.T) {
	g := graph.New(2)
	g.AddArc(0, 1, 1, 3)
	if _, err := MinCostFlow(nil, g, 0, 1, 5); !errors.Is(err, ErrInsufficientCapacity) {
		t.Errorf("err = %v, want ErrInsufficientCapacity", err)
	}
}

func TestMinCostFlowUnlimitedArcs(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, graph.Unlimited)
	g.AddArc(1, 2, 1, graph.Unlimited)
	r, err := MinCostFlow(nil, g, 0, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-1000) > 1e-6 || math.Abs(r.Cost-2000) > 1e-6 {
		t.Errorf("value/cost = %v/%v, want 1000/2000", r.Value, r.Cost)
	}
}

func TestMinCostMaxFlow(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, 7)
	g.AddArc(1, 2, 2, 4)
	r, err := MinCostFlow(nil, g, 0, 2, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-4) > 1e-9 {
		t.Errorf("max-flow value = %v, want 4", r.Value)
	}
}

func TestMinCostFlowSelfLoopTrivial(t *testing.T) {
	g := graph.New(2)
	g.AddArc(0, 1, 1, 1)
	r, err := MinCostFlow(nil, g, 0, 0, 5)
	if err != nil || r.Value != 0 {
		t.Errorf("src==dst should yield zero flow, got %v, %v", r, err)
	}
}

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example with known max flow 23.
	g := graph.New(6)
	g.AddArc(0, 1, 0, 16)
	g.AddArc(0, 2, 0, 13)
	g.AddArc(1, 2, 0, 10)
	g.AddArc(2, 1, 0, 4)
	g.AddArc(1, 3, 0, 12)
	g.AddArc(3, 2, 0, 9)
	g.AddArc(2, 4, 0, 14)
	g.AddArc(4, 3, 0, 7)
	g.AddArc(3, 5, 0, 20)
	g.AddArc(4, 5, 0, 4)
	r := maxFlow(g, 0, 5)
	if math.Abs(r.Value-23) > 1e-9 {
		t.Errorf("max flow = %v, want 23", r.Value)
	}
	// Conservation at interior nodes.
	for v := 1; v <= 4; v++ {
		if net := NetOutflow(g, r.Arc, v); math.Abs(net) > 1e-9 {
			t.Errorf("node %d net outflow = %v, want 0", v, net)
		}
	}
}

func TestMaxFlowUnbounded(t *testing.T) {
	g := graph.New(2)
	g.AddArc(0, 1, 0, graph.Unlimited)
	r := maxFlow(g, 0, 1)
	if !math.IsInf(r.Value, 1) {
		t.Errorf("value = %v, want +Inf", r.Value)
	}
}

// lpMinCostFlow solves the same min-cost flow with the LP package, as an
// independent oracle.
func lpMinCostFlow(g *graph.Graph, src, dst graph.NodeID, value float64) (float64, error) {
	m := g.NumArcs()
	p := lp.NewProblem(m)
	for id := 0; id < m; id++ {
		a := g.Arc(id)
		p.SetObjectiveCoeff(id, a.Cost)
		if !math.IsInf(a.Cap, 1) {
			p.SetBounds(id, 0, a.Cap)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		var idx []int
		var val []float64
		for _, id := range g.Out(v) {
			idx = append(idx, id)
			val = append(val, 1)
		}
		for _, id := range g.In(v) {
			idx = append(idx, id)
			val = append(val, -1)
		}
		want := 0.0
		switch v {
		case src:
			want = value
		case dst:
			want = -value
		}
		p.AddConstraint(idx, val, lp.EQ, want)
	}
	s, err := p.Solve(nil)
	if err != nil {
		return 0, err
	}
	return s.Objective, nil
}

func randomFlowGraph(rng *rand.Rand, n int) *graph.Graph {
	g := graph.New(n)
	// Spine to keep things connected from 0 to n-1.
	for v := 0; v+1 < n; v++ {
		g.AddArc(v, v+1, float64(1+rng.Intn(9)), float64(1+rng.Intn(10)))
	}
	extra := n + rng.Intn(2*n)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddArc(u, v, float64(1+rng.Intn(9)), float64(1+rng.Intn(10)))
	}
	return g
}

func TestMinCostFlowMatchesLPRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(6)
		g := randomFlowGraph(rng, n)
		src, dst := 0, n-1
		mf := maxFlow(g, src, dst)
		if mf.Value < 1 {
			continue
		}
		value := mf.Value * (0.3 + 0.6*rng.Float64())
		got, err := MinCostFlow(nil, g, src, dst, value)
		if err != nil {
			t.Fatalf("trial %d: MinCostFlow: %v", trial, err)
		}
		want, err := lpMinCostFlow(g, src, dst, value)
		if err != nil {
			t.Fatalf("trial %d: LP oracle: %v", trial, err)
		}
		if math.Abs(got.Cost-want) > 1e-5*(1+want) {
			t.Fatalf("trial %d: SSP cost %v, LP cost %v", trial, got.Cost, want)
		}
		// Capacity obedience.
		for id, f := range got.Arc {
			if f > g.Arc(id).Cap+1e-7 {
				t.Fatalf("trial %d: arc %d overloaded: %v > %v", trial, id, f, g.Arc(id).Cap)
			}
		}
	}
}

func TestDecomposeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(6)
		g := randomFlowGraph(rng, n)
		// Multi-sink flow: super-sink n attached to 2 random sinks.
		sinks := map[graph.NodeID]float64{}
		gg := g.Clone()
		super := gg.AddNode()
		for k := 0; k < 2; k++ {
			s := 1 + rng.Intn(n-1)
			if _, dup := sinks[s]; dup {
				continue
			}
			d := float64(1 + rng.Intn(4))
			sinks[s] = d
			gg.AddArc(s, super, 0, d)
		}
		var total float64
		for _, d := range sinks {
			total += d
		}
		res, err := MinCostFlow(nil, gg, 0, super, total)
		if err != nil {
			continue // not enough capacity; skip
		}
		// Project back to g's arcs (g's arc IDs coincide with gg's).
		arcFlow := res.Arc[:g.NumArcs()]
		paths, err := Decompose(g, arcFlow, 0, sortedDemands(sinks))
		if err != nil {
			t.Fatalf("trial %d: Decompose: %v", trial, err)
		}
		// Each sink's demand is met by paths ending there.
		got := map[graph.NodeID]float64{}
		for _, pf := range paths {
			if pf.Path.Len() > 0 {
				if err := pf.Path.Validate(g, 0, pf.Sink); err != nil {
					t.Fatalf("trial %d: bad path: %v", trial, err)
				}
			}
			got[pf.Sink] += pf.Amount
		}
		for s, d := range sinks {
			if math.Abs(got[s]-d) > 1e-7 {
				t.Fatalf("trial %d: sink %d got %v, want %v", trial, s, got[s], d)
			}
		}
		// Recomposed flow never exceeds the original on any arc
		// (cycles may have been dropped).
		rec := recompose(g, paths)
		for id := range rec {
			if rec[id] > arcFlow[id]+1e-7 {
				t.Fatalf("trial %d: recomposed arc %d = %v > original %v", trial, id, rec[id], arcFlow[id])
			}
		}
		// Path count bound: |E| + #sinks.
		if len(paths) > g.NumArcs()+len(sinks) {
			t.Fatalf("trial %d: %d paths exceeds bound %d", trial, len(paths), g.NumArcs()+len(sinks))
		}
	}
}

func TestDecomposeRejectsBadFlow(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, 5)
	// Flow claims 2 units reach node 2, but no arcs go there.
	_, err := Decompose(g, []float64{2}, 0, []Demand{{Node: 2, Amount: 2}})
	if err == nil {
		t.Error("expected error for non-conserving flow")
	}
	// Wrong arc-flow length.
	_, err = Decompose(g, []float64{1, 2}, 0, []Demand{{Node: 1, Amount: 1}})
	if err == nil {
		t.Error("expected error for wrong arc slice length")
	}
}

func TestDecomposeDropsCycle(t *testing.T) {
	// Flow: 0->1 (1 unit) plus a detached 2-cycle 1->2->1 of 1 unit.
	g := graph.New(3)
	a01 := g.AddArc(0, 1, 1, 5)
	a12 := g.AddArc(1, 2, 1, 5)
	a21 := g.AddArc(2, 1, 1, 5)
	arcFlow := make([]float64, 3)
	arcFlow[a01] = 1
	arcFlow[a12] = 1
	arcFlow[a21] = 1
	paths, err := Decompose(g, arcFlow, 0, []Demand{{Node: 1, Amount: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Amount != 1 || paths[0].Sink != 1 {
		t.Fatalf("paths = %+v, want single 0->1 path of 1 unit", paths)
	}
	if paths[0].Path.Len() != 1 {
		t.Errorf("path should not include the cycle, got %d arcs", paths[0].Path.Len())
	}
}

func TestCostHelper(t *testing.T) {
	g := graph.New(2)
	g.AddArc(0, 1, 3, 5)
	g.AddArc(0, 1, 7, 5)
	if got := Cost(g, []float64{2, 1}); got != 13 {
		t.Errorf("Cost = %v, want 13", got)
	}
}
