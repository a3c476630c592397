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

// placementLP builds the lp_sparse_solve_placement / lp_dense_solve_placement
// instance: 120 request variables coupled to a 30x8 placement grid through
// sparse rows. Each call draws from its own seeded generator, so every
// benchmark iteration solves the same LP.
func placementLP(tb testing.TB) *Problem {
	rng := rand.New(rand.NewSource(4))
	const items, nodes, reqs = 30, 8, 120
	p := NewProblem(items*nodes + reqs)
	p.SetSense(Maximize)
	for r := 0; r < reqs; r++ {
		y := items*nodes + r
		p.SetObjectiveCoeff(y, 1+rng.Float64())
		p.SetBounds(y, 0, 1)
		idx := []int{y}
		val := []float64{1}
		seen := map[int]bool{}
		for k := 0; k < 4; k++ {
			x := rng.Intn(items * nodes)
			if seen[x] {
				continue // the LP core rejects duplicate row indices
			}
			seen[x] = true
			idx = append(idx, x)
			val = append(val, -rng.Float64())
		}
		if err := p.AddConstraint(idx, val, LE, 0.1); err != nil {
			tb.Fatal(err)
		}
	}
	for v := 0; v < nodes; v++ {
		idx := make([]int, items)
		vals := make([]float64, items)
		for i := 0; i < items; i++ {
			idx[i], vals[i] = v*items+i, 1
			p.SetBounds(v*items+i, 0, 1)
		}
		if err := p.AddConstraint(idx, vals, LE, 5); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// transportLP builds the pivot-heavy benchmark instance: a 20x30
// transportation problem whose supply rows are equalities, forcing a long
// artificial-driven phase 1 before phase 2 rebalances shipments.
func transportLP(tb testing.TB) *Problem {
	rng := rand.New(rand.NewSource(11))
	const src, dst = 20, 30
	p := NewProblem(src * dst)
	for s := 0; s < src; s++ {
		for d := 0; d < dst; d++ {
			j := s*dst + d
			p.SetBounds(j, 0, 40)
			p.SetObjectiveCoeff(j, 1+9*rng.Float64())
		}
	}
	for s := 0; s < src; s++ {
		idx := make([]int, dst)
		val := make([]float64, dst)
		for d := 0; d < dst; d++ {
			idx[d], val[d] = s*dst+d, 1
		}
		if err := p.AddConstraint(idx, val, EQ, 30); err != nil {
			tb.Fatal(err)
		}
	}
	for d := 0; d < dst; d++ {
		idx := make([]int, src)
		val := make([]float64, src)
		for s := 0; s < src; s++ {
			idx[s], val[s] = s*dst+d, 1
		}
		if err := p.AddConstraint(idx, val, GE, 20); err != nil {
			tb.Fatal(err)
		}
	}
	return p
}

// lpMetrics sums the per-solve counters of the Solutions a benchmark loop
// returns and reports them next to ns/op: pivot throughput plus the pivot
// mix, refactorizations and eta-file growth per op, the pricing and
// update-discipline fingerprint that pairs with the time.
type lpMetrics struct {
	pivots, primal, flips, refactors, etaUpdates, etaNNZ int
}

func (m *lpMetrics) add(sol *Solution) {
	m.pivots += sol.Pivots
	m.primal += sol.PrimalPivots
	m.flips += sol.BoundFlips
	m.refactors += sol.Refactors
	m.etaUpdates += sol.EtaUpdates
	m.etaNNZ += sol.EtaNNZ
}

func (m *lpMetrics) report(b *testing.B) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(m.pivots)/s, "pivots/s")
	}
	n := float64(b.N)
	b.ReportMetric(float64(m.primal)/n, "primal-pivots/op")
	b.ReportMetric(float64(m.flips)/n, "bound-flips/op")
	b.ReportMetric(float64(m.refactors)/n, "refactors/op")
	b.ReportMetric(float64(m.etaUpdates)/n, "eta-updates/op")
	b.ReportMetric(float64(m.etaNNZ)/n, "eta-nnz/op")
}

// benchmarkSolve times build-and-solve of one instance per op.
func benchmarkSolve(b *testing.B, build func(testing.TB) *Problem, solve func(*Problem) (*Solution, error)) {
	b.ReportAllocs()
	var m lpMetrics
	for i := 0; i < b.N; i++ {
		sol, err := solve(build(b))
		if err != nil {
			b.Fatal(err)
		}
		m.add(sol)
	}
	m.report(b)
}

func sparseSolve(p *Problem) (*Solution, error) { return p.Solve(nil) }

func denseSolve(p *Problem) (*Solution, error) { return p.SolveDense(context.Background()) }

func mmsfpSized(testing.TB) *Problem { return MMSFPSizedLP(12, 150, 7) }

// BenchmarkLPSparsePlacement and BenchmarkLPDensePlacement solve the
// placement-shaped LP with the sparse revised simplex and the dense tableau
// oracle; the MMSFPSized pair does the same on the 1800-variable
// MMSFP-shaped instance. The sparse path must stay well ahead.
func BenchmarkLPSparsePlacement(b *testing.B) { benchmarkSolve(b, placementLP, sparseSolve) }

func BenchmarkLPDensePlacement(b *testing.B) { benchmarkSolve(b, placementLP, denseSolve) }

func BenchmarkLPSparseMMSFPSized(b *testing.B) { benchmarkSolve(b, mmsfpSized, sparseSolve) }

func BenchmarkLPDenseMMSFPSized(b *testing.B) { benchmarkSolve(b, mmsfpSized, denseSolve) }

// BenchmarkLPPivotHeavyFT is the Forrest-Tomlin-style kernel benchmark: the
// transportation LP's equality rows force a long phase 1, so the
// product-form update and the stability/work-triggered refactorization
// discipline dominate the profile.
func BenchmarkLPPivotHeavyFT(b *testing.B) { benchmarkSolve(b, transportLP, sparseSolve) }

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
