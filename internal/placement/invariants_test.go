// External test package: internal/check imports placement, so these
// check-based assertions live outside the placement package to avoid an
// import cycle.
package placement_test

import (
	"testing"

	"jcr/internal/check"
	"jcr/internal/graph"
	"jcr/internal/placement"
)

// invariantSpec builds a small line instance: origin 0 -- 1 -- 2 with one
// cache slot at node 1 and requests at nodes 1 and 2.
func invariantSpec() *placement.Spec {
	g := graph.New(3)
	g.AddEdge(0, 1, 10, 100)
	g.AddEdge(1, 2, 1, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 3,
		CacheCap: []float64{0, 1, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, 3),
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, 3)
	}
	s.Rates[0][2] = 5
	s.Rates[1][1] = 2
	s.Rates[2][2] = 1
	return s
}

// rnrServingPaths materializes each request's route-to-nearest-replica
// choice as a least-cost serving path from its source.
func rnrServingPaths(t *testing.T, s *placement.Spec, sources map[placement.Request]graph.NodeID) []placement.ServingPath {
	t.Helper()
	var paths []placement.ServingPath
	for rq, src := range sources {
		p, ok := graph.TreeOf(s.G, src).PathTo(s.G, rq.Node)
		if !ok {
			t.Fatalf("requester %d unreachable from source %d", rq.Node, src)
		}
		paths = append(paths, placement.ServingPath{Req: rq, Path: p, Rate: s.Rates[rq.Item][rq.Node]})
	}
	return paths
}

func TestAlg1SatisfiesInvariants(t *testing.T) {
	s := invariantSpec()
	dist := graph.AllPairs(s.G)
	res, err := placement.Alg1(nil, s, dist, placement.Alg1Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(s, res.Placement); err != nil {
		t.Errorf("Alg1 placement violates Eq. 1f: %v", err)
	}
	paths := rnrServingPaths(t, s, res.Sources)
	if err := check.Flow(s, res.Placement, paths, true); err != nil {
		t.Errorf("Alg1 RNR routing infeasible: %v", err)
	}
	if err := check.Solution(s, res.Placement, paths, res.Cost); err != nil {
		t.Errorf("Alg1 reported cost inconsistent: %v", err)
	}
}

func TestGreedySatisfiesInvariants(t *testing.T) {
	s := invariantSpec()
	s.ItemSize = []float64{0.6, 0.4, 1}
	dist := graph.AllPairs(s.G)
	res, err := placement.Greedy(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	if err := check.Placement(s, res.Placement); err != nil {
		t.Errorf("greedy placement violates Eq. 1f: %v", err)
	}
}

func TestShortestServingSatisfiesInvariants(t *testing.T) {
	s := invariantSpec()
	pl := s.NewPlacement()
	paths := placement.ShortestServingPaths(s, 0)
	if err := check.Flow(s, pl, paths, true); err != nil {
		t.Errorf("shortest-path serving infeasible: %v", err)
	}
}
