package flow

import (
	"fmt"
	"math/rand"
	"testing"

	"jcr/internal/graph"
)

// overlayMatches routes item k's sinks on the overlay o and on a fresh
// residual network of the whole auxiliary graph (MinCostFlowToSinks from
// the item's virtual source, as routing did before the overlay) and
// reports any difference: verdict, error text, or a flow bit. It returns
// the flow.
func overlayMatches(o *Overlay, aux *graph.Auxiliary, k int, capOf func(graph.ArcID) float64, sinks []Demand) ([]float64, error) {
	want, wantErr := MinCostFlowToSinks(nil, aux.G, capOf, aux.VirtualSource[k], sinks)
	got := make([]float64, aux.G.NumArcs())
	gotErr := o.MinCostFlowToSinks(nil, k, capOf, sinks, got)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return nil, fmt.Errorf("item %d: error %v, fresh network %v", k, gotErr, wantErr)
	}
	if wantErr != nil {
		return nil, nil
	}
	if !bitsEqual(got, want) {
		return nil, fmt.Errorf("item %d: flow %v, fresh network %v", k, got, want)
	}
	return got, nil
}

// randomAux draws a base graph (some nodes without entering arcs, costs
// that tie often) and an auxiliary graph over it with 1-4 items of 1-3
// replicas each.
func randomAux(r *rand.Rand) *graph.Auxiliary {
	n := 3 + r.Intn(8)
	g := graph.New(n)
	for e := 0; e < n+r.Intn(2*n); e++ {
		u, v := r.Intn(n), r.Intn(n)
		capacity := graph.Unlimited
		if r.Intn(4) != 0 {
			capacity = 1 + float64(r.Intn(6))
		}
		g.AddArc(u, v, float64(r.Intn(4)), capacity)
	}
	groups := make([][]graph.NodeID, 1+r.Intn(4))
	for i := range groups {
		for j := 0; j < 1+r.Intn(3); j++ {
			groups[i] = append(groups[i], r.Intn(n))
		}
	}
	return graph.NewAuxiliary(g, groups)
}

// randomSinks draws ascending sinks on the base nodes.
func randomSinks(r *rand.Rand, n int) []Demand {
	var sinks []Demand
	for v := 0; v < n; v++ {
		if r.Intn(3) == 0 {
			sinks = append(sinks, Demand{Node: v, Amount: 0.5 + 3*r.Float64()})
		}
	}
	return sinks
}

// TestOverlayMatchesFreshNetworks routes random auxiliary instances the way
// routing's rungs do: every item on its own capacities, then the items in
// sequence on the residual capacities the earlier ones leave (clamped at
// zero, so arcs run dry mid-sequence), then capacity-obliviously. One
// overlay serves the whole sequence, or three take turns as a worker
// pool's would. Every flow must equal the fresh network's bit for bit, and
// every error its text.
func TestOverlayMatchesFreshNetworks(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	var solved, refused, dried int
	for trial := 0; trial < 400; trial++ {
		aux := randomAux(r)
		nb := aux.Base.NumNodes()
		sinks := make([][]Demand, len(aux.VirtualSource))
		for k := range sinks {
			sinks[k] = randomSinks(r, nb)
		}
		nets := make([]*Overlay, 1+2*(trial%2))
		for i := range nets {
			nets[i] = NewOverlay(aux)
		}
		residual := make([]float64, aux.G.NumArcs())
		for id := range residual {
			residual[id] = aux.G.Arc(id).Cap
		}
		capOf := func(id graph.ArcID) float64 {
			if aux.IsVirtualArc(id) {
				return aux.G.Arc(id).Cap
			}
			return residual[id]
		}
		unlimited := func(graph.ArcID) float64 { return graph.Unlimited }
		step := 0
		for _, mode := range []func(graph.ArcID) float64{nil, capOf, unlimited} {
			for k := range sinks {
				f, err := overlayMatches(nets[step%len(nets)], aux, k, mode, sinks[k])
				step++
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if f == nil {
					refused++
					continue
				}
				solved++
				if mode == nil {
					continue
				}
				for id, v := range f {
					residual[id] -= v
					if residual[id] < 0 {
						residual[id] = 0
					}
					if v > 0 && residual[id] <= eps {
						dried++
					}
				}
			}
		}
		for _, o := range nets {
			o.Release()
		}
	}
	if solved == 0 || refused == 0 || dried == 0 {
		t.Fatalf("%d flows solved, %d refused, %d arcs run dry: each must occur", solved, refused, dried)
	}
}

// TestOverlayAllocatesNothing pins a steady-state overlay flow, after the
// first one has sized the network, at zero allocations.
func TestOverlayAllocatesNothing(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1, 1, 2)
	g.AddEdge(1, 2, 1, 2)
	g.AddEdge(0, 3, 2, 5)
	g.AddEdge(3, 2, 2, 5)
	aux := graph.NewAuxiliary(g, [][]graph.NodeID{{0}, {1, 3}})
	o := NewOverlay(aux)
	defer o.Release()
	sinks := []Demand{{Node: 2, Amount: 3}, {Node: 3, Amount: 1}}
	out := make([]float64, aux.G.NumArcs())
	if err := o.MinCostFlowToSinks(nil, 0, nil, sinks, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for k := range aux.VirtualSource {
			if err := o.MinCostFlowToSinks(nil, k, nil, sinks, out); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("overlay flows allocate %v times per run", allocs)
	}
}

// checkOverlay lays in's graph under an auxiliary graph whose first item
// is served from in.src, the second from every odd node, the third from
// nowhere, and routes in's sinks for each item on one overlay, with the
// arcs' own capacities and with every third arc closed. The overlay must
// match fresh networks (overlayMatches).
func checkOverlay(in flowInstance) error {
	var odd []graph.NodeID
	for v := 1; v < in.n; v += 2 {
		odd = append(odd, v)
	}
	aux := graph.NewAuxiliary(in.graph(), [][]graph.NodeID{{in.src}, odd, nil})
	o := NewOverlay(aux)
	defer o.Release()
	closed := func(id graph.ArcID) float64 {
		if id%3 == 0 {
			return 0
		}
		return aux.G.Arc(id).Cap
	}
	for _, capOf := range []func(graph.ArcID) float64{nil, closed} {
		for k := range aux.VirtualSource {
			if _, err := overlayMatches(o, aux, k, capOf, in.sinks); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestOverlayRejectsVirtualSinks pins the overlay's precondition: a sink
// must be a base node.
func TestOverlayRejectsVirtualSinks(t *testing.T) {
	g := graph.New(2)
	g.AddArc(0, 1, 1, 1)
	aux := graph.NewAuxiliary(g, [][]graph.NodeID{{0}})
	o := NewOverlay(aux)
	defer o.Release()
	if err := o.MinCostFlowToSinks(nil, 0, nil, []Demand{{Node: 2, Amount: 1}}, make([]float64, aux.G.NumArcs())); err == nil {
		t.Fatal("a sink at the virtual source was accepted")
	}
}
