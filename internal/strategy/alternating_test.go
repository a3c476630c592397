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

// TestAlternatingServesRepairedRequests gives the partitioned network's
// cut-off component a cache (node 6, next to requester 7). The best-effort
// repair stocks both items there, and the plan must then serve requester
// 7 from node 6 instead of declaring its demand unserved.
func TestAlternatingServesRepairedRequests(t *testing.T) {
	spec, stranded := partitionSpec()
	spec.CacheCap[6] = 2
	inst := Instance{Spec: spec}
	plan, _, err := (&Alternating{Options: Options{BestEffort: true}}).Decide(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(inst, plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.Unserved) != 0 {
		t.Fatalf("unserved %v, want none: the repair stocked a cache the requester reaches", plan.Unserved)
	}
	served := map[placement.Request]float64{}
	for _, sp := range plan.Paths {
		if _, ok := stranded[sp.Req]; ok && sp.Path.Source(spec.G) == 6 {
			served[sp.Req] += sp.Rate
		}
	}
	if !reflect.DeepEqual(served, stranded) {
		t.Fatalf("served from node 6: %v, want %v", served, stranded)
	}
}
