package routing

import (
	"math"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// parallelLineSpec: line 0-1-2-3 with tight cheap arcs and ample expensive
// parallels, origin 0 pinned, three items requested at nodes 1..3, one
// cache slot at nodes 1 and 2 so placements can move replicas around.
func parallelLineSpec() *placement.Spec {
	g := graph.New(4)
	for v := 0; v < 3; v++ {
		g.AddEdge(v, v+1, 1, 1.5)
		g.AddEdge(v, v+1, 5, 100)
	}
	return &placement.Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 1, 1, 0},
		Pinned:   []graph.NodeID{0},
		Rates: [][]float64{
			{0, 1, 1, 1},
			{0, 1, 0, 1},
			{0, 0, 1, 1},
		},
	}
}

func samePaths(a, b []placement.ServingPath) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Req != b[i].Req || a[i].Rate != b[i].Rate || len(a[i].Path.Arcs) != len(b[i].Path.Arcs) {
			return false
		}
		for k := range a[i].Path.Arcs {
			if a[i].Path.Arcs[k] != b[i].Path.Arcs[k] {
				return false
			}
		}
	}
	return true
}

// TestRouteEngineMatchesNil routes a sequence of placements twice under
// best effort — once through a shared tree engine, once with a nil engine
// (cold trees) — and requires identical results every round: the engine may
// only change how much work the reach filter takes. The sequence revisits
// placements so the engine's cached trees actually hit.
func TestRouteEngineMatchesNil(t *testing.T) {
	s := parallelLineSpec()
	eng := graph.NewEngine()
	// Placement sequence: empty, item 0 at node 1, then converged (the
	// alternating loop's regime: a couple of moving rounds, then repeats).
	mk := func(round int) *placement.Placement {
		pl := s.NewPlacement()
		if round > 2 {
			round = 2
		}
		switch round {
		case 1:
			pl.Stores[1][0] = true
		case 2:
			pl.Stores[1][0] = true
			pl.Stores[2][1] = true
		}
		return pl
	}
	for round := 0; round < 9; round++ {
		pl := mk(round)
		opts := Options{Fractional: true, BestEffort: true}
		cold, err := Route(nil, s, pl, opts)
		if err != nil {
			t.Fatalf("round %d cold: %v", round, err)
		}
		opts.Engine = eng
		warm, err := Route(nil, s, pl, opts)
		if err != nil {
			t.Fatalf("round %d engine: %v", round, err)
		}
		if warm.Method != cold.Method {
			t.Fatalf("round %d: method %q with engine, %q cold", round, warm.Method, cold.Method)
		}
		if math.Abs(warm.Cost-cold.Cost) > 1e-9 {
			t.Fatalf("round %d: cost %v with engine, %v cold", round, warm.Cost, cold.Cost)
		}
		if !samePaths(warm.Paths, cold.Paths) {
			t.Fatalf("round %d: paths diverge between engine and cold solves", round)
		}
	}
	if eng.Stats().Hits == 0 {
		t.Error("engine never served a cached tree")
	}
}

// TestRouteBestEffortEngineRepair exercises the best-effort filter, which
// deletes unreachable sinks from the call's own demand sets, across a
// repair: with an engine threaded, a later solve on the repaired graph
// must see the new arc (the engine merges it into its universe) and serve
// the full demand again.
func TestRouteBestEffortEngineRepair(t *testing.T) {
	// Line 0-1 2: node 2 requests item 0 but is disconnected until repair.
	g := graph.New(3)
	g.AddArc(0, 1, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 1, 1}},
	}
	pl := s.NewPlacement()
	eng := graph.NewEngine()
	opts := Options{Fractional: true, BestEffort: true, Engine: eng}
	res, err := Route(nil, s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unserved) != 1 || res.Unserved[placement.Request{Item: 0, Node: 2}] != 1 {
		t.Fatalf("unserved = %v, want exactly node 2's request", res.Unserved)
	}
	if math.Abs(res.Cost-1) > 1e-9 {
		t.Fatalf("disconnected: cost = %v, want 1 (node 1 only)", res.Cost)
	}
	// Repair: connect node 2.
	g.AddArc(1, 2, 1, 10)
	res, err = Route(nil, s, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unserved) != 0 {
		t.Errorf("after repair: unserved = %v, want none", res.Unserved)
	}
	if math.Abs(res.Cost-3) > 1e-9 { // node1: 1 hop, node2: 2 hops
		t.Errorf("after repair: cost = %v, want 3", res.Cost)
	}
	if st := eng.Stats(); st.Merges != 1 || st.Rehomes != 1 {
		t.Errorf("engine stats %+v, want the repaired arc merged into the first universe", st)
	}
}
