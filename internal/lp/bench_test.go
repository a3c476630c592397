package lp

import (
	"context"
	"math/rand"
	"testing"
)

// MMSFPSizedLP builds an LP with the shape of the coupled multicommodity
// MMSFP program (internal/routing.multicommodityLP): one flow variable per
// (item, arc), short conservation-like rows per item, and shared capacity
// rows coupling every item on an arc. The rows are ~6 and ~nItems nonzeros
// wide over nItems*nArcs variables, so density falls as the instance
// grows — exactly the regime the sparse revised simplex targets.
func MMSFPSizedLP(nItems, nArcs int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := nItems * nArcs
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetBounds(j, 0, 10)
		p.SetObjectiveCoeff(j, 1+rng.Float64())
	}
	for i := 0; i < nItems; i++ {
		for r := 0; r < nArcs/4; r++ {
			idx := make([]int, 0, 6)
			val := make([]float64, 0, 6)
			seen := map[int]bool{}
			for k := 0; k < 6; k++ {
				a := rng.Intn(nArcs)
				if seen[a] {
					continue
				}
				seen[a] = true
				idx = append(idx, i*nArcs+a)
				if len(idx)%2 == 1 {
					val = append(val, 1)
				} else {
					val = append(val, -1)
				}
			}
			p.AddConstraint(idx, val, LE, 5+rng.Float64())
		}
	}
	for a := 0; a < nArcs; a++ {
		idx := make([]int, nItems)
		val := make([]float64, nItems)
		for i := 0; i < nItems; i++ {
			idx[i], val[i] = i*nArcs+a, 1
		}
		p.AddConstraint(idx, val, LE, 30)
	}
	return p
}

// BenchmarkLPSparseMMSFPSized measures the sparse revised simplex on the
// 1800-variable MMSFP-shaped instance; BenchmarkLPDenseMMSFPSized is the
// dense tableau oracle on the same instance. The sparse path must stay
// well ahead (≥3x) — see BENCH_pr3.json for tracked numbers.
func BenchmarkLPSparseMMSFPSized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MMSFPSizedLP(12, 150, 7).Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPDenseMMSFPSized(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := MMSFPSizedLP(12, 150, 7).SolveDense(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMMSFPSizedAgree pins the two solvers to the same optimum on the
// benchmark instance, so the speed comparison is apples to apples.
func TestMMSFPSizedAgree(t *testing.T) {
	p := MMSFPSizedLP(8, 60, 7)
	sparse, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	dense, err := MMSFPSizedLP(8, 60, 7).SolveDense(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	diff := sparse.Objective - dense.Objective
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-9*(1+absF(dense.Objective)) {
		t.Fatalf("objectives disagree: sparse %v dense %v", sparse.Objective, dense.Objective)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
