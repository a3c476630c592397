package lp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPivotTrace is the pivot-trace oracle over the package's own LP
// families: every instance is solved on the production (hypersparse) and
// the reference (dense) kernels, which must take the same (entering,
// leaving, flip) sequence and return bit-identical X and objective, and a
// production Solver must agree bit for bit with both. The families are the
// 600-LP differential suite, the quick-check generator, warm perturbation
// sequences (the retained revised rebuilds its pattern and pricing state
// after updateFrom) and the LP row benchmarks' instances, whose pivot
// counts are therefore pinned to the reference kernels' too.
func TestPivotTrace(t *testing.T) {
	t.Run("differential", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 600; i++ {
			p := randomLP(rng)
			if err := newPivotTraceOracle().check(p); err != nil {
				t.Fatalf("instance %d: %v\n%s", i, err, describeLP(p))
			}
		}
	})
	t.Run("quick", func(t *testing.T) {
		property := func(q quickLP) bool {
			if err := newPivotTraceOracle().check(q.p); err != nil {
				t.Logf("%v\n%s", err, describeLP(q.p))
				return false
			}
			return true
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 250, Rand: rand.New(rand.NewSource(1))}); err != nil {
			t.Error(err)
		}
	})
	t.Run("warm", func(t *testing.T) {
		rng := rand.New(rand.NewSource(271828))
		solves, warm := 0, 0
		for seq := 0; seq < 60; seq++ {
			p := randomLP(rng)
			o := newPivotTraceOracle()
			for step := 0; step < 12; step++ {
				if err := o.check(p); err != nil {
					t.Fatalf("sequence %d step %d: %v\n%s", seq, step, err, describeLP(p))
				}
				perturb(rng, p)
			}
			solves += o.solves
			warm += o.warm
		}
		if warm == 0 {
			t.Fatalf("no warm solve in %d", solves)
		}
		t.Logf("%d solves, %d warm", solves, warm)
	})
	t.Run("rows", func(t *testing.T) {
		ps := map[string]*Problem{
			"placement": placementLP(t),
			"transport": transportLP(t),
			"mmsfp":     MMSFPSizedLP(12, 150, 7),
		}
		maxi := MMSFPSizedLP(12, 150, 7)
		maxi.SetSense(Maximize)
		ps["mmsfp_max"] = maxi
		for name, p := range ps {
			o := newPivotTraceOracle()
			if err := o.check(p); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			t.Logf("%s: %d pivots", name, o.pivots)
		}
	})
}

// TestPricingMatchesScan is the property behind maintained pricing: for
// random score vectors full of ties, at every cursor position, and for n on
// both sides of the 1024-column section floor, chooseEntering's block
// queries return the column and leave the cursor the linear section scan
// does — also after batches of columns redrawn and touched.
func TestPricingMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 7, 1000, 1024, 1025, 2100, 8201, 9000} {
		for _, density := range []float64{0.5, 0.01, 0.0005} {
			r := pricingFixture(rng, n, density)
			for round := 0; round < 3; round++ {
				for c := 0; c <= n; c++ { // n itself wraps to 0
					r.scanFrom = c
					got := r.chooseEntering(false)
					gotCursor := r.scanFrom
					r.scanFrom = c
					want := r.refChooseEntering(false)
					if got != want || gotCursor != r.scanFrom {
						t.Fatalf("n=%d density=%g round %d cursor %d: tree picks %d (cursor %d), scan %d (cursor %d)",
							n, density, round, c, got, gotCursor, want, r.scanFrom)
					}
				}
				// Redraw a random batch and touch it, as the pivot loop
				// does after an exchange.
				for k := 0; k < 1+n/20; k++ {
					j := rng.Intn(n)
					drawPricingColumn(rng, r, j, density)
					r.setStatus(j)
				}
			}
		}
	}
}

// pricingFixture builds just enough of a revised for chooseEntering: n
// columns with random statuses, reduced costs and weights drawn from small
// sets so that equal scores are common.
func pricingFixture(rng *rand.Rand, n int, density float64) *revised {
	r := &revised{
		f:      &stdForm{n: n, ub: make([]float64, n)},
		inRow:  make([]int, n),
		atUp:   make([]bool, n),
		frozen: make([]bool, n),
		z:      make([]float64, n),
		w:      make([]float64, n),
		price:  newPricing(n),
		wMax:   1,
	}
	for j := 0; j < n; j++ {
		drawPricingColumn(rng, r, j, density)
		r.setStatus(j)
	}
	return r
}

// drawPricingColumn redraws column j: with probability density an improving
// candidate, otherwise a column excluded one of the ways pricing excludes
// them (basic, frozen, fixed at ub 0, non-improving or barely improving
// reduced cost).
func drawPricingColumn(rng *rand.Rand, r *revised, j int, density float64) {
	r.inRow[j], r.frozen[j], r.atUp[j] = -1, false, rng.Intn(2) == 0
	r.f.ub[j] = 1
	r.w[j] = []float64{1, 1, 2, 4, 1e300}[rng.Intn(5)]
	s := []float64{0.5, 1, 2, 3}[rng.Intn(4)]
	if rng.Float64() >= density {
		switch rng.Intn(5) {
		case 0:
			r.inRow[j] = 0
		case 1:
			r.frozen[j] = true
		case 2:
			r.f.ub[j] = 0
		case 3:
			s = costTol / 2
		default:
			s = -s
		}
	}
	if r.atUp[j] {
		r.z[j] = s
	} else {
		r.z[j] = -s
	}
}
