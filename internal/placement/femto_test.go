package placement

import (
	"fmt"
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
	s, err := femtoSpec(helperCost, originCost, capacity, rates)
	if err != nil {
		t.Fatal(err)
	}
	dist := graph.AllPairs(s.G)
	res, err := Alg1(nil, s, dist, Alg1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Has(femtoHelperNode(0), 0) {
		t.Error("helper 0 should cache item 0 (only covers u0)")
	}
	if !res.Placement.Has(femtoHelperNode(1), 1) {
		t.Error("helper 1 should cache item 1 (only covers u2)")
	}
	// Cost: item0 from helper0 at 1, item1 from helper1 at 1.
	if want := 5*1.0 + 4*1.0; math.Abs(res.Cost-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", res.Cost, want)
	}
	// Uncovered requester falls back to the origin.
	src := res.Sources[Request{Item: 0, Node: femtoRequesterNode(2, 0)}]
	if src != femtoHelperNode(0) {
		t.Errorf("u0's item 0 served from %d, want helper 0", src)
	}
}

func TestFemtoSpecErrors(t *testing.T) {
	inf := math.Inf(1)
	ok2x2 := [][]float64{{1, 2}, {2, 1}}
	cases := map[string]func() error{
		"capacity length": func() error {
			_, err := femtoSpec(ok2x2, []float64{1, 1}, []float64{1}, [][]float64{{1, 1}})
			return err
		},
		"cost row length": func() error {
			_, err := femtoSpec([][]float64{{1}, {1, 2}}, []float64{1, 1}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"unreachable requester": func() error {
			_, err := femtoSpec(ok2x2, []float64{1, inf}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"negative cost": func() error {
			_, err := femtoSpec([][]float64{{-1, 2}, {2, 1}}, []float64{1, 1}, []float64{1, 1}, [][]float64{{1, 1}})
			return err
		},
		"rate row length": func() error {
			_, err := femtoSpec(ok2x2, []float64{1, 1}, []float64{1, 1}, [][]float64{{1}})
			return err
		},
		"empty": func() error {
			_, err := femtoSpec(nil, nil, nil, nil)
			return err
		},
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// femtoSpec builds the Section 4.1.4 special case as a Spec: a bipartite
// cache network in which a set H of helper caches and one origin serve a
// set U of pure requesters over logical links whose costs are the
// least-cost path costs of the underlying (uncapacitated) network. The
// paper shows Algorithm 1 generalizes the FemtoCaching problem [32] to
// arbitrary costs; this constructor makes the reduction concrete so Alg1
// (or Greedy) can be applied to it directly.
//
//   - helperCost[h][u] is the delivery cost from helper h to requester u
//     (math.Inf(1) when h cannot serve u, i.e. no logical link);
//   - originCost[u] is the delivery cost from the origin server to u;
//   - capacity[h] is helper h's cache size in items;
//   - rates[i][u] is the request rate of item i at requester u.
//
// Node numbering in the resulting Spec: 0 is the origin (pinned), then the
// |H| helpers, then the |U| requesters.
func femtoSpec(helperCost [][]float64, originCost []float64, capacity []float64, rates [][]float64) (*Spec, error) {
	nH := len(helperCost)
	nU := len(originCost)
	if len(capacity) != nH {
		return nil, fmt.Errorf("placement: %d capacities for %d helpers", len(capacity), nH)
	}
	if nU == 0 || len(rates) == 0 {
		return nil, fmt.Errorf("placement: empty femto instance")
	}
	for h, row := range helperCost {
		if len(row) != nU {
			return nil, fmt.Errorf("placement: helper %d has %d costs for %d requesters", h, len(row), nU)
		}
	}
	g := graph.New(1 + nH + nU)
	helper := func(h int) graph.NodeID { return 1 + h }
	requester := func(u int) graph.NodeID { return 1 + nH + u }
	for u, c := range originCost {
		if math.IsInf(c, 1) {
			return nil, fmt.Errorf("placement: requester %d unreachable from the origin", u)
		}
		if c < 0 {
			return nil, fmt.Errorf("placement: negative origin cost %v", c)
		}
		g.AddArc(0, requester(u), c, graph.Unlimited)
	}
	for h, row := range helperCost {
		for u, c := range row {
			if math.IsInf(c, 1) {
				continue // helper h does not cover requester u
			}
			if c < 0 {
				return nil, fmt.Errorf("placement: negative helper cost %v", c)
			}
			g.AddArc(helper(h), requester(u), c, graph.Unlimited)
		}
	}
	nItems := len(rates)
	spec := &Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, g.NumNodes()),
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, nItems),
	}
	for h, c := range capacity {
		if c < 0 {
			return nil, fmt.Errorf("placement: negative capacity %v for helper %d", c, h)
		}
		spec.CacheCap[helper(h)] = c
	}
	for i, row := range rates {
		if len(row) != nU {
			return nil, fmt.Errorf("placement: item %d has %d rates for %d requesters", i, len(row), nU)
		}
		spec.Rates[i] = make([]float64, g.NumNodes())
		for u, r := range row {
			spec.Rates[i][requester(u)] = r
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// femtoRequesterNode maps a requester index of femtoSpec back to its node
// ID (useful for reading Sources out of an Alg1Result).
func femtoRequesterNode(numHelpers, u int) graph.NodeID { return 1 + numHelpers + u }

// femtoHelperNode maps a helper index of femtoSpec to its node ID.
func femtoHelperNode(h int) graph.NodeID { return 1 + h }
