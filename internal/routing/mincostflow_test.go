package routing

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"jcr/internal/flow"
	"jcr/internal/graph"
)

// cloneItemMinCostFlow is the clone-based per-item flow itemMinCostFlow
// replaced: copy the auxiliary graph, override capacities arc by arc, add
// a super sink with one arc per sink in ascending order, and solve on the
// copy. It is the oracle for the clone-free construction.
func cloneItemMinCostFlow(aux *graph.Auxiliary, k int, ad itemDemand, residual []float64, unlimited bool) ([]float64, error) {
	gg := aux.G.Clone()
	switch {
	case unlimited:
		for id := 0; id < aux.G.NumArcs(); id++ {
			gg.SetArcCap(id, graph.Unlimited)
		}
	case residual != nil:
		for id := 0; id < aux.G.NumArcs(); id++ {
			if !aux.IsVirtualArc(id) {
				gg.SetArcCap(id, residual[id])
			}
		}
	}
	super := gg.AddNode()
	var total float64
	for _, t := range ad.sorted {
		gg.AddArc(t, super, 0, ad.sinks[t])
		total += ad.sinks[t]
	}
	res, err := flow.MinCostFlowContext(nil, gg, aux.VirtualSource[k], super, total)
	if err != nil {
		return nil, err
	}
	return res.Arc[:aux.G.NumArcs()], nil
}

// cloneRecoverInOrder is recoverInOrder's former body, one auxiliary-graph
// copy per item with the supply caps written onto the item's virtual arcs.
func cloneRecoverInOrder(aux *graph.Auxiliary, active []itemDemand, order []int, supplyCaps []map[graph.NodeID]float64) ([][]float64, error) {
	g := aux.G
	residual := make([]float64, g.NumArcs())
	for id := range residual {
		residual[id] = g.Arc(id).Cap
	}
	flows := make([][]float64, len(active))
	for _, k := range order {
		gg := g.Clone()
		for id := 0; id < g.NumArcs(); id++ {
			if !aux.IsVirtualArc(id) {
				gg.SetArcCap(id, residual[id])
			}
		}
		if supplyCaps != nil {
			for _, v := range sortedArcKeys(aux.VirtualArc[k]) {
				gg.SetArcCap(aux.VirtualArc[k][v], supplyCaps[k][v])
			}
		}
		super := gg.AddNode()
		var total float64
		for _, t := range active[k].sorted {
			gg.AddArc(t, super, 0, active[k].sinks[t])
			total += active[k].sinks[t]
		}
		res, err := flow.MinCostFlowContext(nil, gg, aux.VirtualSource[k], super, total)
		if err != nil {
			return nil, err
		}
		f := res.Arc[:g.NumArcs()]
		flows[k] = f
		for id, v := range f {
			if !aux.IsVirtualArc(id) {
				residual[id] -= v
				if residual[id] < 0 {
					residual[id] = 0
				}
			}
		}
	}
	return flows, nil
}

// randomAuxInstance draws a capacitated random graph, an auxiliary graph
// with one virtual source per item over 1-3 replica nodes, and per-item
// demands at random sinks. Costs repeat on purpose, so ties between
// equal-cost flows are common and the sink-arc order matters.
func randomAuxInstance(r *rand.Rand) (*graph.Auxiliary, []itemDemand) {
	n := 4 + r.Intn(7)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, float64(r.Intn(4)), 2+8*r.Float64())
	}
	for e := 0; e < n; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			capacity := graph.Unlimited
			if r.Float64() < 0.7 {
				capacity = 1 + 6*r.Float64()
			}
			g.AddArc(u, v, float64(r.Intn(4)), capacity)
		}
	}
	items := 1 + r.Intn(4)
	sources := make([][]graph.NodeID, items)
	active := make([]itemDemand, items)
	for i := range sources {
		for j := 0; j < 1+r.Intn(3); j++ {
			sources[i] = append(sources[i], r.Intn(n))
		}
		sinks := make(map[graph.NodeID]float64)
		var total float64
		for j := 0; j < 1+r.Intn(4); j++ {
			d := 0.5 + 4*r.Float64()
			sinks[r.Intn(n)] += d
			total += d
		}
		active[i] = itemDemand{item: i, sinks: sinks, sorted: sortedSinks(sinks), total: total}
	}
	return graph.NewAuxiliary(g, sources), active
}

// sameFlow reports whether two arc flows agree bit for bit.
func sameFlow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for id := range a {
		if math.Float64bits(a[id]) != math.Float64bits(b[id]) {
			return false
		}
	}
	return true
}

// TestItemMinCostFlowMatchesClone pins the clone-free per-item flow to the
// clone-based construction bit for bit, in all three capacity modes (own
// caps, a residual override, unlimited), including the
// ErrInsufficientCapacity verdict when the demand does not fit.
func TestItemMinCostFlowMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	var solved, refused int
	for trial := 0; trial < 300; trial++ {
		aux, active := randomAuxInstance(r)
		residual := make([]float64, aux.G.NumArcs())
		for id := range residual {
			// Virtual entries are garbage on purpose: the override
			// must leave virtual arcs at their own capacity.
			residual[id] = 4 * r.Float64()
		}
		for k := range active {
			for _, mode := range []struct {
				name      string
				residual  []float64
				unlimited bool
			}{{"own", nil, false}, {"residual", residual, false}, {"unlimited", nil, true}} {
				want, wantErr := cloneItemMinCostFlow(aux, k, active[k], mode.residual, mode.unlimited)
				got, gotErr := itemMinCostFlow(nil, aux, k, active[k], mode.residual, mode.unlimited)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("trial %d item %d %s: error %v, clone-based %v", trial, k, mode.name, gotErr, wantErr)
				}
				if wantErr != nil {
					if !errors.Is(gotErr, flow.ErrInsufficientCapacity) || gotErr.Error() != wantErr.Error() {
						t.Fatalf("trial %d item %d %s: error %q, clone-based %q", trial, k, mode.name, gotErr, wantErr)
					}
					refused++
					continue
				}
				if !sameFlow(got, want) {
					t.Fatalf("trial %d item %d %s: flow %v, clone-based %v", trial, k, mode.name, got, want)
				}
				solved++
			}
		}
	}
	if solved == 0 || refused == 0 {
		t.Fatalf("%d solved and %d refused flows; both verdicts must occur", solved, refused)
	}
}

// TestRecoverInOrderMatchesClone pins the decomposition's greedy recovery,
// which overrides real-arc capacities with the running residual and the
// item's virtual arcs with its supply caps, to the clone-based version.
func TestRecoverInOrderMatchesClone(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	var compared int
	for trial := 0; trial < 200; trial++ {
		aux, active := randomAuxInstance(r)
		order := r.Perm(len(active))
		var supplyCaps []map[graph.NodeID]float64
		if trial%2 == 1 {
			supplyCaps = make([]map[graph.NodeID]float64, len(active))
			for k := range active {
				supplyCaps[k] = make(map[graph.NodeID]float64)
				for _, v := range sortedArcKeys(aux.VirtualArc[k]) {
					supplyCaps[k][v] = active[k].total * (0.3 + r.Float64())
				}
			}
		}
		want, wantErr := cloneRecoverInOrder(aux, active, order, supplyCaps)
		got, _, gotErr := recoverInOrder(nil, aux, active, order, supplyCaps)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error %v, clone-based %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for k := range active {
			if !sameFlow(got[k], want[k]) {
				t.Fatalf("trial %d item %d: flow %v, clone-based %v", trial, k, got[k], want[k])
			}
		}
		compared++
	}
	if compared < 50 {
		t.Fatalf("only %d recoveries succeeded; the comparison needs feasible instances", compared)
	}
}
