package strategy

import (
	"context"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// TestAlternatingEvictsOverCapacityInitial seeds the optimizer with a
// caller placement that no longer fits the caches (node 2 holds two items
// in one slot). The seed must be evicted down to fit on a copy: the plan
// passes Validate and the caller's placement is left as it was.
func TestAlternatingEvictsOverCapacityInitial(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 50, 10)
	g.AddEdge(1, 2, 2, 10)
	g.AddEdge(1, 3, 3, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 4, 1}, {0, 0, 1, 3}},
	}
	initial := s.NewPlacement()
	initial.Stores[2][0] = true
	initial.Stores[2][1] = true
	want := initial.Clone()
	inst := Instance{Spec: s, Initial: initial}
	for _, warm := range []bool{false, true} {
		alt := &Alternating{Options: Options{WarmStart: warm}}
		plan, _, err := alt.Decide(context.Background(), inst)
		if err != nil {
			t.Fatalf("warm=%v: %v", warm, err)
		}
		if err := Validate(inst, plan); err != nil {
			t.Errorf("warm=%v: %v", warm, err)
		}
		if !reflect.DeepEqual(initial, want) {
			t.Fatalf("warm=%v: caller's Initial was modified: %v", warm, initial.Stores)
		}
	}
}
