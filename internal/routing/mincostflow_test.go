package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jcr/internal/flow"
	"jcr/internal/graph"
)

// cloneItemMinCostFlow is the clone-based per-item flow itemMinCostFlow
// replaced: copy the auxiliary graph, override capacities arc by arc, add
// a super sink with one arc per sink in the order given, and solve on the
// copy. It is the oracle for the clone-free construction and, through
// refItemMinCostFlow, for refRoute.
func cloneItemMinCostFlow(ctx context.Context, aux *graph.Auxiliary, k int, sinks []flow.Demand, residual []float64, unlimited bool) ([]float64, error) {
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
	for _, d := range sinks {
		gg.AddArc(d.Node, super, 0, d.Amount)
		total += d.Amount
	}
	res, err := flow.MinCostFlow(ctx, gg, aux.VirtualSource[k], super, total)
	if err != nil {
		return nil, err
	}
	return res.Arc[:aux.G.NumArcs()], nil
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
		active[i] = itemDemand{item: i, sinks: sortedSinks(sinks), total: total}
	}
	return graph.NewAuxiliary(g, sources), active
}

// sortedSinks lists a demand map in ascending sink order.
func sortedSinks(sinks map[graph.NodeID]float64) []flow.Demand {
	out := make([]flow.Demand, 0, len(sinks))
	for v, d := range sinks {
		out = append(out, flow.Demand{Node: v, Amount: d})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
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
		net := flow.NewOverlay(aux)
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
				want, wantErr := cloneItemMinCostFlow(nil, aux, k, active[k].sinks, mode.residual, mode.unlimited)
				got := make([]float64, aux.G.NumArcs())
				gotErr := itemMinCostFlow(nil, net, aux, k, active[k], mode.residual, mode.unlimited, got)
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
		net.Release()
	}
	if solved == 0 || refused == 0 {
		t.Fatalf("%d solved and %d refused flows; both verdicts must occur", solved, refused)
	}
}

// TestSplittableFlowsMatchReference compares the per-item arc flows of
// every rung, routed on overlay networks, with refSplittableFlows, which
// builds a fresh residual network per item, bit for bit, with Workers 1
// and 3. Tight capacities run arcs dry in the sequential rung, and the LP
// rung is forbidden on every other instance so the sequential rung fires.
func TestSplittableFlowsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	methods := map[string]int{}
	buf := new([]float64)
	for trial := 0; trial < 200; trial++ {
		s, pl := referenceInstance(r, trial%4 != 0, false)
		var active []itemDemand
		var refActive []refItemDemand
		var groups [][]graph.NodeID
		refSets := refDemandSets(s)
		for j, ad := range demandSets(s) {
			if reps := pl.Replicas(ad.item); len(reps) > 0 {
				active = append(active, ad)
				refActive = append(refActive, refSets[j])
				groups = append(groups, reps)
			}
		}
		aux := graph.NewAuxiliary(s.G, groups)
		for _, workers := range []int{1, 3} {
			opts := Options{Workers: workers, LPMaxVars: defaultLPMaxVars}
			if trial%2 == 0 {
				opts.LPMaxVars = 1
			}
			got, method, err := splittableFlows(nil, aux, active, opts, buf)
			want, refMethod, refErr := refSplittableFlows(nil, aux, refActive, opts)
			if fmt.Sprint(err) != fmt.Sprint(refErr) || method != refMethod {
				t.Fatalf("trial %d workers %d: %s %v, reference %s %v", trial, workers, method, err, refMethod, refErr)
			}
			for k := range want {
				if !sameFlow(got[k], want[k]) {
					t.Fatalf("trial %d workers %d item %d (%s): flow %v, reference %v", trial, workers, k, method, got[k], want[k])
				}
			}
			methods[method]++
		}
	}
	t.Logf("methods %v", methods)
	for _, m := range []string{MethodIndependent, MethodLP, MethodSequential} {
		if methods[m] == 0 {
			t.Errorf("no instance routed by the %s rung", m)
		}
	}
}
