package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"jcr/internal/graph"
)

// TestDecomposeCancelsResidualCycleOnPath covers the cycle-cancellation
// branch where the walk actually enters the cycle: the detour 1->2->1
// carries more residual than the direct arc to the sink, so the
// max-residual walk takes it, revisits 1, and must cancel the cycle
// before it can reach the sink.
func TestDecomposeCancelsResidualCycleOnPath(t *testing.T) {
	g := graph.New(4)
	a01 := g.AddArc(0, 1, 1, 5)
	a12 := g.AddArc(1, 2, 1, 5) // largest residual at 1: walk takes the detour
	a21 := g.AddArc(2, 1, 1, 5)
	a13 := g.AddArc(1, 3, 1, 5)
	arcFlow := make([]float64, 4)
	arcFlow[a01] = 2
	arcFlow[a12] = 3
	arcFlow[a21] = 3
	arcFlow[a13] = 2
	paths, err := Decompose(g, arcFlow, 0, []Demand{{Node: 3, Amount: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Sink != 3 || math.Abs(paths[0].Amount-2) > 1e-9 {
		t.Fatalf("paths = %+v, want single 0->1->3 path of 2 units", paths)
	}
	for _, id := range paths[0].Path.Arcs {
		if id == a12 || id == a21 {
			t.Errorf("path uses canceled cycle arc %d", id)
		}
	}
}

// TestDecomposeZeroFlowArcsAfterCancellation checks that arcs whose flow
// is entirely canceled cycle mass end up carrying nothing: the recomposed
// flow is zero there and exactly matches the input on the path arcs.
func TestDecomposeZeroFlowArcsAfterCancellation(t *testing.T) {
	// 0->1->3 carries the demand; 1->2->1 is a 1-unit residual cycle.
	g := graph.New(4)
	a01 := g.AddArc(0, 1, 1, 5)
	a12 := g.AddArc(1, 2, 1, 5)
	a21 := g.AddArc(2, 1, 1, 5)
	a13 := g.AddArc(1, 3, 1, 5)
	arcFlow := make([]float64, 4)
	arcFlow[a01] = 1
	arcFlow[a12] = 1
	arcFlow[a21] = 1
	arcFlow[a13] = 1
	paths, err := Decompose(g, arcFlow, 0, []Demand{{Node: 3, Amount: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rec := recompose(g, paths)
	for _, id := range []graph.ArcID{a12, a21} {
		if rec[id] != 0 {
			t.Errorf("cycle arc %d recomposed to %v, want 0", id, rec[id])
		}
	}
	for _, id := range []graph.ArcID{a01, a13} {
		if math.Abs(rec[id]-arcFlow[id]) > 1e-9 {
			t.Errorf("path arc %d recomposed to %v, want %v", id, rec[id], arcFlow[id])
		}
	}
}

// TestDecomposeIgnoresLPNoiseArcs is the regression for the multicommodity
// LP call sites: simplex solutions carry round-off residue slightly above
// the walk tolerance on arcs the true flow leaves empty. A
// first-positive-arc walk follows the noise arc 0->4 into a dead end and
// wrongly reports the (conservative) flow stuck; the max-residual walk
// must route the full demand along the real path.
func TestDecomposeIgnoresLPNoiseArcs(t *testing.T) {
	g := graph.New(5)
	n04 := g.AddArc(0, 4, 1, 5) // dead-end noise arc, deliberately first
	a01 := g.AddArc(0, 1, 1, 25)
	a13 := g.AddArc(1, 3, 1, 25)
	arcFlow := make([]float64, 3)
	arcFlow[n04] = 1e-9 // above arcTol, below any real flow
	arcFlow[a01] = 20
	arcFlow[a13] = 20
	paths, err := Decompose(g, arcFlow, 0, []Demand{{Node: 3, Amount: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 || paths[0].Sink != 3 || math.Abs(paths[0].Amount-20) > 1e-6 {
		t.Fatalf("paths = %+v, want single 0->1->3 path of 20 units", paths)
	}
	for _, id := range paths[0].Path.Arcs {
		if id == n04 {
			t.Errorf("path uses noise arc %d", id)
		}
	}
}

// TestQuickDecomposeConservesFlowUnderLinkRemovals is the fault-scenario
// property: degrade a random network by removing a random subset of links,
// route a min-cost flow on the survivor, and require the decomposition to
// reproduce the arc flow exactly. Min-cost flows on positive-cost arcs are
// cycle-free, so recompose(Decompose(f)) must equal f per arc, and each
// sink's paths must add up to its demand.
func TestQuickDecomposeConservesFlowUnderLinkRemovals(t *testing.T) {
	property := func(qn quickNet, removalSeed int64) bool {
		rng := rand.New(rand.NewSource(removalSeed))
		// Injected link removals: rebuild the graph without ~30% of arcs.
		g := graph.New(qn.G.NumNodes())
		for id := 0; id < qn.G.NumArcs(); id++ {
			if rng.Float64() < 0.3 {
				continue
			}
			a := qn.G.Arc(id)
			g.AddArc(a.From, a.To, a.Cost, a.Cap)
		}
		src := 0
		gg := g.Clone()
		super := gg.AddNode()
		sinks := map[graph.NodeID]float64{}
		for k := 0; k < 2; k++ {
			s := 1 + rng.Intn(g.NumNodes()-1)
			if _, dup := sinks[s]; !dup {
				d := 0.3 + 2*rng.Float64()
				sinks[s] = d
				gg.AddArc(s, super, 0, d)
			}
		}
		var total float64
		for _, d := range sinks {
			total += d
		}
		res, err := MinCostFlow(nil, gg, src, super, total)
		if err != nil {
			return true // removals disconnected the sinks; nothing to check
		}
		arcFlow := res.Arc[:g.NumArcs()]
		paths, err := Decompose(g, arcFlow, src, sortedDemands(sinks))
		if err != nil {
			return false
		}
		served := map[graph.NodeID]float64{}
		for _, pf := range paths {
			served[pf.Sink] += pf.Amount
		}
		for s, d := range sinks {
			if math.Abs(served[s]-d) > 1e-6*(1+d) {
				return false
			}
		}
		rec := recompose(g, paths)
		for id := range rec {
			if math.Abs(rec[id]-arcFlow[id]) > 1e-6*(1+arcFlow[id]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// recompose converts path flows back to an arc flow, the inverse of
// Decompose up to dropped cycles.
func recompose(g *graph.Graph, paths []PathFlow) []float64 {
	arc := make([]float64, g.NumArcs())
	for _, pf := range paths {
		for _, id := range pf.Path.Arcs {
			arc[id] += pf.Amount
		}
	}
	return arc
}
