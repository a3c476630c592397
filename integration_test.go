package jcr_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"jcr"
)

// TestEndToEndEdgeCaching runs the full public-API pipeline on the
// evaluation topology: build the network, attach demand, solve with every
// top-level algorithm, and check the relationships the paper's theory
// promises between them.
func TestEndToEndEdgeCaching(t *testing.T) {
	net := jcr.Abovenet(4)
	rng := rand.New(rand.NewSource(10))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(500)

	const nItems = 12
	spec := &jcr.Spec{
		G:        net.G,
		NumItems: nItems,
		CacheCap: make([]float64, net.G.NumNodes()),
		Pinned:   []int{net.Origin},
		Rates:    make([][]float64, nItems),
	}
	edgeDemand := make([]float64, len(net.Edges))
	for _, v := range net.Edges {
		spec.CacheCap[v] = 3
	}
	for i := range spec.Rates {
		spec.Rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			r := 5 * rng.Float64() * float64(nItems-i) // head-heavy
			spec.Rates[i][v] = r
			edgeDemand[e] += r
		}
	}
	if err := net.AugmentFeasibility(edgeDemand); err != nil {
		t.Fatal(err)
	}

	// 1. Alternating IC-IR: feasible, validated, congestion bounded.
	sol, err := jcr.Alternating(spec, jcr.AlternatingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jcr.ValidateSolution(spec, sol); err != nil {
		t.Fatal(err)
	}

	// 2. IC-FR costs no more than IC-IR here (exact fractional routing
	// on the same placement subroutine).
	icfr, err := jcr.Alternating(spec, jcr.AlternatingOptions{Fractional: true})
	if err != nil {
		t.Fatal(err)
	}
	if icfr.Cost > sol.Cost*1.2 {
		t.Errorf("IC-FR cost %v should not exceed IC-IR %v substantially", icfr.Cost, sol.Cost)
	}

	// 3. Origin-only serving is the upper envelope.
	base, err := jcr.Route(spec, spec.NewPlacement(), jcr.RoutingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost >= base.Cost {
		t.Errorf("alternating %v did not improve on origin-only %v", sol.Cost, base.Cost)
	}

	// 4. Under unlimited capacities Alg. 1's RNR cost lower-bounds the
	// capacitated solution (same placement space, no capacity limits).
	net.SetUnlimitedCapacity()
	dist := jcr.AllPairs(net.G)
	a1, err := jcr.Alg1(spec, dist)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Cost > sol.Cost*(1+1e-9) {
		t.Errorf("uncapacitated Alg.1 cost %v above capacitated %v", a1.Cost, sol.Cost)
	}

	// 5. The greedy placement runs on the same spec (facade-level smoke).
	gr, err := jcr.Greedy(spec, dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(gr.Cost) || gr.Cost <= 0 {
		t.Errorf("greedy cost = %v", gr.Cost)
	}

	// 6. The online simulator accepts the same spec as a static hour.
	alt, err := jcr.NewStrategy("alternating", jcr.StrategyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	series, err := jcr.RunOnline(context.Background(), alt, []jcr.OnlineHour{
		{Hour: 0, Decision: spec, Truth: spec, Dist: dist},
		{Hour: 1, Decision: spec, Truth: spec, Dist: dist},
	}, jcr.OnlineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Hours) != 2 {
		t.Fatalf("online hours = %d", len(series.Hours))
	}
	// Identical decision/truth: the first hour's cost equals the
	// alternating cost on the (now uncapacitated) spec within noise.
	if series.Hours[0].Cost <= 0 {
		t.Errorf("online hour cost = %v", series.Hours[0].Cost)
	}
}

// TestEndToEndBinaryCache exercises the MSUFP pipeline through the facade
// on a Table-5-sized network.
func TestEndToEndBinaryCache(t *testing.T) {
	net := jcr.Tinet(2)
	rng := rand.New(rand.NewSource(3))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(300)
	perEdge := make([]float64, len(net.Edges))
	type dem struct {
		e int
		d float64
	}
	var dems []dem
	for i := 0; i < 40; i++ {
		e := rng.Intn(len(net.Edges))
		d := 5 + 20*rng.Float64()
		dems = append(dems, dem{e, d})
		perEdge[e] += d
	}
	if err := net.AugmentFeasibility(perEdge); err != nil {
		t.Fatal(err)
	}
	g := net.G.Clone()
	vs := g.AddNode()
	g.AddArc(vs, net.Origin, 0, jcr.Unlimited)
	g.AddArc(vs, net.Edges[0], 0, jcr.Unlimited)
	inst := &jcr.MSUFPInstance{G: g, Source: vs}
	for _, dm := range dems {
		inst.Commodities = append(inst.Commodities, jcr.MSUFPCommodity{Dest: net.Edges[dm.e], Demand: dm.d})
	}
	split, err := inst.SplittableOptimum()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 64} {
		asgn, err := jcr.SolveMSUFP(inst, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := inst.Validate(asgn); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		m := inst.Evaluate(asgn)
		if m.Cost > split.Cost*(1+1e-6) {
			t.Errorf("K=%d: cost %v above splittable bound %v", k, m.Cost, split.Cost)
		}
	}
}
