package jcr

import (
	"context"
	"math"
	"strings"
	"testing"
)

// facadeSpec builds a small instance entirely through the public API.
func facadeSpec() *Spec {
	g := NewGraph(4)
	g.AddEdge(0, 1, 50, 100)
	g.AddEdge(1, 2, 2, 100)
	g.AddEdge(1, 3, 3, 100)
	s := &Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1, 1},
		Pinned:   []int{0},
		Rates:    [][]float64{{0, 0, 5, 1}, {0, 0, 1, 3}},
	}
	return s
}

func TestFacadeAlg1AndGreedy(t *testing.T) {
	s := facadeSpec()
	dist := AllPairs(s.G)
	a1, err := Alg1(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := Greedy(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cost <= 0 || gr.Cost <= 0 {
		t.Errorf("costs should be positive: Alg1 %v, Greedy %v", a1.Cost, gr.Cost)
	}
	// Each edge caches its locally hottest item.
	if !a1.Placement.Has(2, 0) || !a1.Placement.Has(3, 1) {
		t.Errorf("Alg1 placement unexpected: node2 item0=%v node3 item1=%v",
			a1.Placement.Has(2, 0), a1.Placement.Has(3, 1))
	}
}

func TestFacadeAlternatingAndValidate(t *testing.T) {
	s := facadeSpec()
	alt, err := NewStrategy("alternating", StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sol, _, err := alt.Decide(context.Background(), Instance{Spec: s})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(Instance{Spec: s}, sol); err != nil {
		t.Fatal(err)
	}
	fc, err := SolveFCFR(s)
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxUtilization <= 1+1e-9 && fc.Cost > sol.Cost*(1+1e-6) {
		t.Errorf("FC-FR bound %v exceeds IC-IR cost %v", fc.Cost, sol.Cost)
	}
}

func TestFacadeMSUFP(t *testing.T) {
	g := NewGraph(3)
	g.AddArc(0, 1, 1, 4)
	g.AddArc(0, 2, 2, 4)
	g.AddArc(1, 2, 1, 4)
	inst := &MSUFPInstance{
		G:      g,
		Source: 0,
		Commodities: []MSUFPCommodity{
			{Dest: 2, Demand: 2},
			{Dest: 1, Demand: 1},
		},
	}
	asgn, err := SolveMSUFP(inst, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(asgn); err != nil {
		t.Fatal(err)
	}
	m := inst.Evaluate(asgn)
	if m.Cost <= 0 || math.IsNaN(m.Cost) {
		t.Errorf("MSUFP cost = %v", m.Cost)
	}
}

func TestFacadeTopologiesAndRegimes(t *testing.T) {
	for _, mk := range []func(int64) *Network{Abovenet, Abvt, Tinet, Deltacom} {
		n := mk(1)
		if !n.G.Connected() {
			t.Errorf("%s disconnected", n.Name)
		}
	}
	// The facade's regime knob: integral (IC-IR) or fractional (IC-FR)
	// routing under the alternating strategy.
	s := facadeSpec()
	for _, frac := range []bool{false, true} {
		alt, err := NewStrategy("alternating", StrategyOptions{Fractional: frac})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := alt.Decide(context.Background(), Instance{Spec: s})
		if err != nil {
			t.Fatalf("fractional=%v: %v", frac, err)
		}
		if err := ValidatePlan(Instance{Spec: s}, plan); err != nil {
			t.Fatalf("fractional=%v: %v", frac, err)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(Experiments()) == 0 {
		t.Fatal("no experiments registered")
	}
	out, err := RunExperiment(context.Background(), "table1", DefaultExperimentConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table 1") {
		t.Errorf("table1 output malformed")
	}
	if _, err := RunExperiment(context.Background(), "bogus", DefaultExperimentConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
}
