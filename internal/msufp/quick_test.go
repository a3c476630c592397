package msufp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jcr/internal/graph"
)

// quickMSUFP is a random feasible MSUFP instance for testing/quick: a
// connected network with a guaranteed-feasible commodity set (capacities
// are augmented along a spanning tree by the per-destination demand).
type quickMSUFP struct {
	inst *Instance
	k    int
}

// Generate implements quick.Generator.
func (quickMSUFP) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 4 + rng.Intn(7)
	g := graph.New(n)
	treeArcs := make([][]graph.ArcID, n) // arcs of the path 0 -> v
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		uv, _ := g.AddEdge(u, v, float64(1+rng.Intn(12)), 2+6*rng.Float64())
		treeArcs[v] = append(append([]graph.ArcID(nil), treeArcs[u]...), uv)
	}
	extra := rng.Intn(n)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(12)), 2+6*rng.Float64())
		}
	}
	inst := &Instance{G: g, Source: 0}
	nc := 2 + rng.Intn(7)
	for i := 0; i < nc; i++ {
		dest := 1 + rng.Intn(n-1)
		d := 0.2 + 3*rng.Float64()
		inst.Commodities = append(inst.Commodities, Commodity{Dest: dest, Demand: d})
		// Guarantee feasibility along the tree path to dest.
		for _, id := range treeArcs[dest] {
			g.SetArcCap(id, g.Arc(id).Cap+d)
		}
	}
	return reflect.ValueOf(quickMSUFP{inst: inst, k: 1 + rng.Intn(30)})
}

// Algorithm 2 always returns valid single paths whose total cost respects
// Theorem 4.7(i) and whose loads respect Theorem 4.7(ii).
func TestQuickAlg2Theorem47(t *testing.T) {
	property := func(q quickMSUFP) bool {
		split, err := q.inst.SplittableOptimum(nil)
		if err != nil {
			return false // generator guarantees feasibility
		}
		asgn, err := SolveAlg2(nil, q.inst, q.k)
		if err != nil {
			return false
		}
		if q.inst.Validate(asgn) != nil {
			return false
		}
		m := q.inst.Evaluate(asgn)
		var lambdaMax float64
		for _, c := range q.inst.Commodities {
			if c.Demand > lambdaMax {
				lambdaMax = c.Demand
			}
		}
		pk := math.Pow(2, 1/float64(q.k))
		// Cost bound: Lemma 4.6 bounds the path costs weighted by the
		// ROUNDED demands by the splittable cost; routing the original
		// demands loses at most the rounding factor 2^(1/K).
		if m.Cost > pk*split.Cost*(1+1e-6)+1e-9 {
			return false
		}
		additive := pk / (2 * (pk - 1)) * lambdaMax
		for id, load := range m.Load {
			if c := q.inst.G.Arc(id).Cap; load >= additive+pk*c+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Demand rounding is idempotent in its class and never crosses classes:
// RoundDemand(RoundDemand(x)) has the same level, and rounded demands
// within a class differ by exact powers of two.
func TestQuickRoundingStability(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		lambdaMax := 1 + 100*rng.Float64()
		for i := 0; i < 20; i++ {
			lam := lambdaMax * (1e-4 + (1-1e-4)*rng.Float64())
			r := RoundDemand(lam, lambdaMax, k)
			if r > lam*(1+1e-9) || r < lam*math.Pow(2, -1/float64(k))*(1-1e-9) {
				return false
			}
			if ClassOf(lam, lambdaMax, k) < 0 || ClassOf(lam, lambdaMax, k) >= k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
