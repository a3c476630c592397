package placement

import (
	"math"
	"testing"

	"jcr/internal/graph"
)

func TestFemtoSpecAndAlg1(t *testing.T) {
	inf := math.Inf(1)
	// Two helpers, three requesters; helper 0 covers u0,u1, helper 1
	// covers u1,u2; origin is far from everyone.
	helperCost := [][]float64{
		{1, 2, inf},
		{inf, 1, 1},
	}
	originCost := []float64{20, 20, 20}
	capacity := []float64{1, 1}
	rates := [][]float64{
		{5, 0, 0}, // item 0 hot at u0
		{0, 0, 4}, // item 1 hot at u2
	}
	s, err := FemtoSpec(helperCost, originCost, capacity, rates)
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.AllPairs(s.G)
	res, err := Alg1(nil, s, dist, Alg1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Has(FemtoHelperNode(0), 0) {
		t.Error("helper 0 should cache item 0 (only covers u0)")
	}
	if !res.Placement.Has(FemtoHelperNode(1), 1) {
		t.Error("helper 1 should cache item 1 (only covers u2)")
	}
	// Cost: item0 from helper0 at 1, item1 from helper1 at 1.
	if want := 5*1.0 + 4*1.0; math.Abs(res.Cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", res.Cost, want)
	}
	// Uncovered requester falls back to the origin.
	src := res.Sources[Request{Item: 0, Node: FemtoRequesterNode(2, 0)}]
	if src != FemtoHelperNode(0) {
		t.Errorf("u0's item 0 served from %d, want helper 0", src)
	}
}

func TestFemtoSpecErrors(t *testing.T) {
	inf := math.Inf(1)
	ok2x2 := [][]float64{{1, 2}, {2, 1}}
	cases := map[string]func() error{
		"capacity length": func() error {
			_, err := FemtoSpec(ok2x2, []float64{1, 1}, []float64{1}, [][]float64{{1, 1}})
			return err
		},
		"cost row length": func() error {
			_, err := FemtoSpec([][]float64{{1}, {1, 2}}, []float64{1, 1}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"unreachable requester": func() error {
			_, err := FemtoSpec(ok2x2, []float64{1, inf}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"negative cost": func() error {
			_, err := FemtoSpec([][]float64{{-1, 2}, {2, 1}}, []float64{1, 1}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"rate row length": func() error {
			_, err := FemtoSpec(ok2x2, []float64{1, 1}, []float64{1, 1}, [][]float64{{1}})
			return err
		},
		"empty": func() error {
			_, err := FemtoSpec(nil, nil, nil, nil)
			return err
		},
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
