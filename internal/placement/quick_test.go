package placement

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"jcr/internal/graph"
)

// quickSpec is a random placement problem for testing/quick.
type quickSpec struct {
	s *Spec
}

// Generate implements quick.Generator.
func (quickSpec) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 3 + rng.Intn(6)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(15)), graph.Unlimited)
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(15)), graph.Unlimited)
		}
	}
	nItems := 1 + rng.Intn(4)
	s := &Spec{
		G:        g,
		NumItems: nItems,
		CacheCap: make([]float64, n),
		Pinned:   []graph.NodeID{n - 1},
		Rates:    make([][]float64, nItems),
	}
	for v := 0; v < n-1; v++ {
		s.CacheCap[v] = float64(rng.Intn(3))
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := 0; v < n-1; v++ {
			if rng.Float64() < 0.5 {
				s.Rates[i][v] = 0.2 + 5*rng.Float64()
			}
		}
	}
	return reflect.ValueOf(quickSpec{s: s})
}

// Every algorithm returns a cache-feasible placement whose RNR cost plus
// saving equals the no-cache baseline.
func TestQuickPlacementConservation(t *testing.T) {
	property := func(q quickSpec) bool {
		dist := graph.AllPairs(q.s.G)
		wmax := graph.MaxFinite(dist)
		if wmax <= 0 {
			return true
		}
		baselineSaving := func(pl *Placement) bool {
			// saving(X) + cost(X) is the wmax-padded constant
			// sum_rq lambda * wmax only when every request's nearest
			// replica distance enters both; verify via definitions.
			var constant float64
			for _, rq := range q.s.Requests() {
				constant += q.s.Rates[rq.Item][rq.Node] * wmax
			}
			_, cost := q.s.RNRSources(pl, dist)
			sv := q.s.SavingRNR(pl, dist, wmax)
			return abs(sv+cost-constant) <= 1e-6*(1+constant)
		}
		a1, err := Alg1(nil, q.s, dist, Alg1Options{})
		if err != nil {
			return false
		}
		if q.s.CheckFeasible(a1.Placement) != nil || !baselineSaving(a1.Placement) {
			return false
		}
		gr, err := Greedy(q.s, dist)
		if err != nil {
			return false
		}
		if q.s.CheckFeasible(gr.Placement) != nil || !baselineSaving(gr.Placement) {
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Growing any cache never increases the optimal greedy cost (monotone
// resource augmentation).
func TestQuickGreedyMonotoneInCapacity(t *testing.T) {
	property := func(q quickSpec, node uint8) bool {
		dist := graph.AllPairs(q.s.G)
		before, err := Greedy(q.s, dist)
		if err != nil {
			return false
		}
		grown := *q.s
		grown.CacheCap = append([]float64(nil), q.s.CacheCap...)
		v := int(node) % (q.s.G.NumNodes() - 1)
		grown.CacheCap[v]++
		after, err := Greedy(&grown, dist)
		if err != nil {
			return false
		}
		// Greedy is not globally optimal, so allow a tiny slack; in
		// practice extra capacity never hurts the greedy either.
		return after.Cost <= before.Cost*(1+1e-9)+1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Pipage rounding of a random fractional vector preserves the weighted
// linear objective and the capacity budget (Lemma 4.3's invariants).
func TestQuickPipagePreservesLinearObjective(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		cap_ := float64(1 + rng.Intn(n))
		x := make([]float64, n)
		w := make([]float64, n)
		var sum float64
		for i := range x {
			x[i] = rng.Float64()
			w[i] = rng.Float64() * 10
			sum += x[i]
		}
		if sum > cap_ {
			for i := range x {
				x[i] *= cap_ / sum
			}
		}
		var before float64
		for i := range x {
			before += w[i] * x[i]
		}
		pipageRound(x, cap_, func(i int) float64 { return w[i] })
		var after, used float64
		for i := range x {
			if x[i] != 0 && x[i] != 1 {
				return false // must be integral
			}
			after += w[i] * x[i]
			used += x[i]
		}
		return used <= cap_+1e-9 && after >= before-1e-9
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
