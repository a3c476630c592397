package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// diffObjTol is the relative objective agreement the sparse revised
// simplex must keep with the dense tableau oracle on every generated LP.
const diffObjTol = 1e-9

// randomLP draws one LP from a family that deliberately produces all
// three verdicts: box-bounded variables (sometimes with infinite upper
// bounds, so unbounded instances occur), random sparse rows of every
// operator, and occasionally contradictory constraint pairs (so
// infeasible instances occur).
func randomLP(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(12)
	p := NewProblem(n)
	if rng.Intn(2) == 0 {
		p.SetSense(Maximize)
	}
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(7) - 3)
		hi := lo + float64(rng.Intn(8))
		if rng.Intn(8) == 0 {
			hi = math.Inf(1) // opens the door to unbounded rays
		}
		p.SetBounds(j, lo, hi)
		p.SetObjectiveCoeff(j, float64(rng.Intn(9)-4))
	}
	// Half the instances anchor every row to a witness point inside the
	// box, so they are feasible by construction and the verdict is optimal
	// or unbounded; the other half draw fully random rows, which are very
	// often infeasible. Together the three verdicts all appear.
	anchored := rng.Intn(2) == 0
	witness := make([]float64, n)
	for j := range witness {
		hi := p.upper[j]
		if math.IsInf(hi, 1) {
			hi = p.lower[j] + 4
		}
		witness[j] = p.lower[j] + (hi-p.lower[j])*rng.Float64()
	}
	rows := rng.Intn(2 * n)
	for r := 0; r < rows; r++ {
		nnz := 1 + rng.Intn(min(n, 4))
		idx := rng.Perm(n)[:nnz]
		val := make([]float64, nnz)
		var lhs float64
		for k := range val {
			val[k] = float64(rng.Intn(9) - 4)
			lhs += val[k] * witness[idx[k]]
		}
		op := []Op{LE, GE, EQ}[rng.Intn(3)]
		rhs := float64(rng.Intn(17) - 8)
		if anchored {
			switch op {
			case LE:
				rhs = lhs + rng.Float64()*3
			case GE:
				rhs = lhs - rng.Float64()*3
			default:
				rhs = lhs
			}
		}
		if err := p.AddConstraint(idx, val, op, rhs); err != nil {
			panic(err) // generator bug: indices are a Perm prefix
		}
		if !anchored && rng.Intn(10) == 0 {
			// A deliberately contradictory sibling row forces infeasible
			// verdicts into the sample.
			if err := p.AddConstraint(idx, val, flipOp(op), rhs-float64(1+rng.Intn(5))*flipSign(op)); err != nil {
				panic(err)
			}
		}
	}
	return p
}

func flipOp(op Op) Op {
	switch op {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

func flipSign(op Op) float64 {
	if op == GE {
		return 1
	}
	return -1
}

// TestDifferentialSparseVsDense is the randomized differential suite for
// the solver swap: across 600 generated LPs the sparse revised simplex
// and the dense tableau oracle must return the identical verdict
// (optimal / infeasible / unbounded) and, when optimal, objectives within
// diffObjTol relative. Solutions may differ (alternate optima are fine);
// objective and verdict may not.
func TestDifferentialSparseVsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := map[string]int{}
	const instances = 600
	for i := 0; i < instances; i++ {
		p := randomLP(rng)
		sparseSol, sparseErr := p.Solve(nil)
		denseSol, denseErr := p.SolveDense(context.Background())
		sv, dv := verdict(sparseErr), verdict(denseErr)
		counts[dv]++
		if sv != dv {
			t.Fatalf("instance %d: verdicts disagree: sparse %q dense %q\n%s", i, sv, dv, describeLP(p))
		}
		if sparseErr != nil {
			continue
		}
		diff := math.Abs(sparseSol.Objective - denseSol.Objective)
		if diff > diffObjTol*(1+math.Abs(denseSol.Objective)) {
			t.Fatalf("instance %d: objectives disagree: sparse %v dense %v (diff %g)\n%s",
				i, sparseSol.Objective, denseSol.Objective, diff, describeLP(p))
		}
		// Both claimed optimal: the sparse solution must actually satisfy
		// the problem it solved.
		if !feasible(p, sparseSol.X) {
			t.Fatalf("instance %d: sparse solution infeasible\n%s", i, describeLP(p))
		}
	}
	// The generator must exercise all three verdicts, or the suite is
	// silently weaker than it claims.
	for _, v := range []string{"optimal", "infeasible", "unbounded"} {
		if counts[v] == 0 {
			t.Errorf("no %s instance in %d draws; strengthen the generator", v, instances)
		}
	}
	t.Logf("verdicts over %d instances: %v", instances, counts)
}

// verdict maps a solver error to its differential-comparison class.
func verdict(err error) string {
	switch {
	case err == nil:
		return "optimal"
	case errors.Is(err, ErrInfeasible):
		return "infeasible"
	case errors.Is(err, ErrUnbounded):
		return "unbounded"
	default:
		return "error:" + err.Error()
	}
}

// describeLP renders a failing instance compactly enough to reproduce.
func describeLP(p *Problem) string {
	s := fmt.Sprintf("sense=%v n=%d\n", p.sense, p.NumVars())
	for j := 0; j < p.NumVars(); j++ {
		s += fmt.Sprintf("  x%d in [%g,%g] obj %g\n", j, p.lower[j], p.upper[j], p.obj[j])
	}
	for _, c := range p.cons {
		s += fmt.Sprintf("  row %v %v op%d rhs %g\n", c.idx, c.val, c.op, c.rhs)
	}
	return s
}
