package lp

import "testing"

// BenchmarkLPSparsePivotHeavy measures the sparse revised simplex on a
// pivot-heavy instance: maximizing the MMSFP-shaped objective pushes flow
// variables to their bounds through thousands of pivots (~6.5k on this
// size), crossing the refactorEvery boundary ~100 times per solve. That
// puts basisLU.update's eta-file recycling on the measured path — the
// minimization benchmarks above are optimal at x = 0 and never pivot.
// Unlike BenchmarkLPPivotHeavyFT, whose transportation LP spends its
// pivots in an artificial-driven phase 1, this one is all phase 2 and
// refactors about a hundred times per solve.
func BenchmarkLPSparsePivotHeavy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := MMSFPSizedLP(12, 150, 7)
		p.SetSense(Maximize)
		if _, err := p.Solve(nil); err != nil {
			b.Fatal(err)
		}
	}
}
