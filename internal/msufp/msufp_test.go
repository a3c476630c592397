package msufp

import (
	"math"
	"math/rand"
	"testing"

	"jcr/internal/graph"
)

func TestRoundDemandProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(12)
		lambdaMax := 1 + 100*rng.Float64()
		lambda := lambdaMax * rng.Float64()
		if lambda <= 0 {
			continue
		}
		r := RoundDemand(lambda, lambdaMax, k)
		lo := lambda * math.Pow(2, -1/float64(k))
		if r > lambda*(1+1e-9) {
			t.Fatalf("rounded %v above demand %v", r, lambda)
		}
		if r < lo*(1-1e-9) {
			t.Fatalf("rounded %v below 2^(-1/K) bound %v (lambda=%v K=%d)", r, lo, lambda, k)
		}
	}
}

func TestRoundDemandMax(t *testing.T) {
	got := RoundDemand(8, 8, 4)
	want := 8 * math.Pow(2, -0.25)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("RoundDemand(max) = %v, want %v", got, want)
	}
	if c := ClassOf(8, 8, 4); c != 3 {
		t.Errorf("ClassOf(max, K=4) = %d, want K-1 = 3", c)
	}
}

func TestClassRoundedDemandsDifferByPowersOf2(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(8)
		lambdaMax := 1 + 50*rng.Float64()
		byClass := map[int][]float64{}
		for i := 0; i < 20; i++ {
			lambda := lambdaMax * (0.001 + 0.999*rng.Float64())
			j := ClassOf(lambda, lambdaMax, k)
			if j < 0 || j >= k {
				t.Fatalf("class %d out of range for K=%d", j, k)
			}
			byClass[j] = append(byClass[j], RoundDemand(lambda, lambdaMax, k))
		}
		for j, ds := range byClass {
			for _, d := range ds[1:] {
				ratio := math.Log2(d / ds[0])
				if math.Abs(ratio-math.Round(ratio)) > 1e-9 {
					t.Fatalf("class %d: demands %v and %v differ by 2^%v, not a power of 2", j, ds[0], d, ratio)
				}
			}
		}
	}
}

// lineInstance: source 0, a cheap narrow path and an expensive wide path to
// every destination.
func diamondInstance() *Instance {
	g := graph.New(4)
	g.AddArc(0, 1, 1, 4) // cheap
	g.AddArc(1, 3, 1, 4)
	g.AddArc(0, 2, 5, 100) // expensive
	g.AddArc(2, 3, 5, 100)
	return &Instance{
		G:      g,
		Source: 0,
		Commodities: []Commodity{
			{Dest: 3, Demand: 2},
			{Dest: 3, Demand: 2},
			{Dest: 3, Demand: 4},
		},
	}
}

func TestSplittableOptimum(t *testing.T) {
	inst := diamondInstance()
	res, err := inst.SplittableOptimum(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 4 units on the cheap route (cost 2 each), 4 on the expensive
	// (cost 10 each): 8 + 40 = 48.
	if math.Abs(res.Cost-48) > 1e-9 {
		t.Errorf("splittable cost = %v, want 48", res.Cost)
	}
}

func TestSolveAlg2Diamond(t *testing.T) {
	inst := diamondInstance()
	for _, k := range []int{1, 2, 4, 16} {
		asgn, err := SolveAlg2(nil, inst, k)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if err := inst.Validate(asgn); err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		m := inst.Evaluate(asgn)
		if m.Cost > 48+1e-6 {
			t.Errorf("K=%d: cost %v exceeds splittable optimum 48", k, m.Cost)
		}
	}
}

func TestSolveRNR(t *testing.T) {
	inst := diamondInstance()
	asgn, err := SolveRNR(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(asgn); err != nil {
		t.Fatal(err)
	}
	m := inst.Evaluate(asgn)
	// Everything on the cheap path: cost 8*2=16, load 8 on cap-4 arcs.
	if math.Abs(m.Cost-16) > 1e-9 {
		t.Errorf("RNR cost = %v, want 16", m.Cost)
	}
	if math.Abs(m.MaxUtilization-2) > 1e-9 {
		t.Errorf("RNR congestion = %v, want 2", m.MaxUtilization)
	}
}

func TestSolveAlg2Errors(t *testing.T) {
	inst := diamondInstance()
	if _, err := SolveAlg2(nil, inst, 0); err == nil {
		t.Error("K=0 accepted")
	}
	empty := &Instance{G: inst.G, Source: 0}
	if _, err := SolveAlg2(nil, empty, 2); err == nil {
		t.Error("empty instance accepted")
	}
	if _, err := empty.SplittableOptimum(nil); err == nil {
		t.Error("empty instance accepted by SplittableOptimum")
	}
}

func randomInstance(rng *rand.Rand) *Instance {
	n := 5 + rng.Intn(8)
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, float64(1+rng.Intn(9)), 5+15*rng.Float64())
	}
	extra := rng.Intn(2 * n)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(9)), 5+15*rng.Float64())
		}
	}
	inst := &Instance{G: g, Source: 0}
	nc := 2 + rng.Intn(6)
	for i := 0; i < nc; i++ {
		inst.Commodities = append(inst.Commodities, Commodity{
			Dest:   1 + rng.Intn(n-1),
			Demand: 0.2 + 2.8*rng.Float64(),
		})
	}
	return inst
}

func TestSolveAlg2PropertiesRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for trial := 0; trial < 80; trial++ {
		inst := randomInstance(rng)
		split, err := inst.SplittableOptimum(nil)
		if err != nil {
			continue // infeasible instance; skip
		}
		lambdaMax := 0.0
		for _, c := range inst.Commodities {
			if c.Demand > lambdaMax {
				lambdaMax = c.Demand
			}
		}
		for _, k := range []int{1, 2, 5, 20} {
			asgn, err := SolveAlg2(nil, inst, k)
			if err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			if err := inst.Validate(asgn); err != nil {
				t.Fatalf("trial %d K=%d: %v", trial, k, err)
			}
			m := inst.Evaluate(asgn)
			// Theorem 4.7(i): cost within the splittable optimum.
			if m.Cost > split.Cost*(1+1e-6)+1e-6 {
				t.Fatalf("trial %d K=%d: cost %v > splittable %v", trial, k, m.Cost, split.Cost)
			}
			// Theorem 4.7(ii): congestion bound per arc.
			pk := math.Pow(2, 1/float64(k))
			additive := pk / (2 * (pk - 1)) * lambdaMax
			for id, load := range m.Load {
				c := inst.G.Arc(id).Cap
				bound := additive + pk*c
				if load >= bound+1e-6 {
					t.Fatalf("trial %d K=%d: arc %d load %v >= bound %v (cap %v)", trial, k, id, load, bound, c)
				}
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only %d/80 random instances feasible; generator too harsh", checked)
	}
}

func TestUnsplittablePow2Direct(t *testing.T) {
	// Demands 1,1,2 to node 3 through the diamond; flow splits evenly.
	g := graph.New(4)
	a0 := g.AddArc(0, 1, 1, 10)
	a1 := g.AddArc(1, 3, 1, 10)
	b0 := g.AddArc(0, 2, 2, 10)
	b1 := g.AddArc(2, 3, 2, 10)
	arcFlow := make([]float64, 4)
	arcFlow[a0], arcFlow[a1] = 2.5, 2.5
	arcFlow[b0], arcFlow[b1] = 1.5, 1.5
	dests := []graph.NodeID{3, 3, 3}
	demands := []float64{1, 1, 2}
	paths, err := UnsplittablePow2(g, 0, dests, demands, arcFlow, nil)
	if err != nil {
		t.Fatal(err)
	}
	flowCost := 2.5*2 + 1.5*4
	var cost float64
	load := make([]float64, 4)
	for i, p := range paths {
		if err := p.Validate(g, 0, 3); err != nil {
			t.Fatalf("path %d: %v", i, err)
		}
		cost += demands[i] * p.Cost(g)
		for _, id := range p.Arcs {
			load[id] += demands[i]
		}
	}
	if cost > flowCost+1e-9 {
		t.Errorf("unsplittable cost %v > flow cost %v", cost, flowCost)
	}
	// Lemma 4.6(ii)-style bound: load < flow + max demand.
	for id := range load {
		if load[id] >= arcFlow[id]+2+1e-9 {
			t.Errorf("arc %d: load %v >= flow %v + max demand 2", id, load[id], arcFlow[id])
		}
	}
}

func TestUnsplittablePow2RandomProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	checked := 0
	for trial := 0; trial < 60; trial++ {
		inst := randomInstance(rng)
		// Force power-of-2 demands.
		base := 0.25 + rng.Float64()
		var maxD float64
		for i := range inst.Commodities {
			d := base * math.Pow(2, float64(rng.Intn(4)))
			inst.Commodities[i].Demand = d
			if d > maxD {
				maxD = d
			}
		}
		split, err := inst.SplittableOptimum(nil)
		if err != nil {
			continue
		}
		dests := make([]graph.NodeID, len(inst.Commodities))
		demands := make([]float64, len(inst.Commodities))
		for i, c := range inst.Commodities {
			dests[i] = c.Dest
			demands[i] = c.Demand
		}
		paths, err := UnsplittablePow2(inst.G, inst.Source, dests, demands, split.Arc, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var cost float64
		load := make([]float64, inst.G.NumArcs())
		for i, p := range paths {
			if err := p.Validate(inst.G, inst.Source, dests[i]); err != nil {
				t.Fatalf("trial %d path %d: %v", trial, i, err)
			}
			cost += demands[i] * p.Cost(inst.G)
			for _, id := range p.Arcs {
				load[id] += demands[i]
			}
		}
		if cost > split.Cost*(1+1e-6)+1e-9 {
			t.Fatalf("trial %d: cost %v > splittable %v", trial, cost, split.Cost)
		}
		for id := range load {
			if load[id] >= split.Arc[id]+maxD+1e-6 {
				t.Fatalf("trial %d: arc %d load %v >= flow %v + maxD %v", trial, id, load[id], split.Arc[id], maxD)
			}
		}
		checked++
	}
	if checked < 15 {
		t.Fatalf("only %d/60 instances feasible", checked)
	}
}

func TestLargerKWeaklyReducesCongestionOnAverage(t *testing.T) {
	// The paper's Fig. 6 observation: larger K yields less congestion.
	// Demands are spread so rounding error matters; we assert the
	// average congestion over many seeds is no worse for K=50 than K=2.
	rng := rand.New(rand.NewSource(5))
	var avg2, avg50 float64
	count := 0
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(rng)
		if _, err := inst.SplittableOptimum(nil); err != nil {
			continue
		}
		a2, err := SolveAlg2(nil, inst, 2)
		if err != nil {
			t.Fatal(err)
		}
		a50, err := SolveAlg2(nil, inst, 50)
		if err != nil {
			t.Fatal(err)
		}
		avg2 += inst.Evaluate(a2).MaxUtilization
		avg50 += inst.Evaluate(a50).MaxUtilization
		count++
	}
	if count == 0 {
		t.Skip("no feasible instances")
	}
	if avg50 > avg2*1.05 {
		t.Errorf("average congestion K=50 (%v) noticeably worse than K=2 (%v) over %d instances", avg50/float64(count), avg2/float64(count), count)
	}
}
