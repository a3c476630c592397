package lp

import (
	"math/rand"
	"testing"
)

// TestDualWorkloadMix mirrors the lp_dual_warm_rhs benchmark workload and
// asserts it actually exercises the dual rung — guarding the benchmark
// against silently degrading into a pure retained-basis loop.
func TestDualWorkloadMix(t *testing.T) {
	p := MMSFPSizedLP(12, 150, 7)
	p.SetSense(Maximize)
	s := NewSolver()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		if err := p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 2+4*rng.Float64()); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Solve(nil, p); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	t.Logf("stats=%+v", st)
	if st.WarmDualHits == 0 {
		t.Errorf("workload never took the dual rung: %+v", st)
	}
}
