package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickLP is a random box-bounded LP (always feasible at the lower-bound
// corner when constraints are generated around it).
type quickLP struct {
	p *Problem
}

// Generate implements quick.Generator: a bounded LP whose feasibility is
// guaranteed by construction (every constraint is satisfied at a known
// interior point).
func (quickLP) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(5)
	p := NewProblem(n)
	if rng.Intn(2) == 0 {
		p.SetSense(Maximize)
	}
	witness := make([]float64, n)
	for j := 0; j < n; j++ {
		lo := float64(rng.Intn(5) - 2)
		hi := lo + float64(1+rng.Intn(6))
		p.SetBounds(j, lo, hi)
		p.SetObjectiveCoeff(j, float64(rng.Intn(11)-5))
		witness[j] = lo + (hi-lo)*rng.Float64()
	}
	rows := rng.Intn(5)
	for r := 0; r < rows; r++ {
		row := make([]float64, n)
		var lhs float64
		for j := range row {
			row[j] = float64(rng.Intn(7) - 3)
			lhs += row[j] * witness[j]
		}
		// Choose an operator/rhs pair the witness satisfies.
		switch rng.Intn(3) {
		case 0:
			addDense(p, row, LE, lhs+rng.Float64()*3)
		case 1:
			addDense(p, row, GE, lhs-rng.Float64()*3)
		default:
			addDense(p, row, EQ, lhs)
		}
	}
	return reflect.ValueOf(quickLP{p: p})
}

// The solver always succeeds on feasible bounded LPs, returns a feasible
// point, and no single-coordinate perturbation that stays feasible improves
// the objective (first-order optimality probe).
func TestQuickSimplexFeasibleOptimal(t *testing.T) {
	property := func(q quickLP) bool {
		sol, err := q.p.Solve(nil)
		if err != nil {
			return false // bounded + feasible by construction
		}
		if !feasible(q.p, sol.X) {
			return false
		}
		// Probe: nudging any variable in its improving direction must
		// break feasibility (otherwise the solution was not optimal).
		for j := 0; j < q.p.NumVars(); j++ {
			c := q.p.obj[j]
			if c == 0 {
				continue
			}
			dir := 1.0 // improving direction for this coordinate
			if (q.p.sense == Minimize) == (c > 0) {
				dir = -1
			}
			probe := append([]float64(nil), sol.X...)
			probe[j] += dir * 1e-4
			if feasible(q.p, probe) {
				improvement := q.p.Value(probe) - sol.Objective
				if q.p.sense == Minimize {
					improvement = -improvement
				}
				if improvement > 1e-7 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Scaling the objective scales the optimum; translating bounds translates
// the solution (affine invariances of LPs).
func TestQuickSimplexScaleInvariance(t *testing.T) {
	property := func(q quickLP) bool {
		sol, err := q.p.Solve(nil)
		if err != nil {
			return false
		}
		scaled := NewProblem(q.p.NumVars())
		scaled.SetSense(q.p.sense)
		for j := 0; j < q.p.NumVars(); j++ {
			scaled.SetObjectiveCoeff(j, 3*q.p.obj[j])
			scaled.SetBounds(j, q.p.lower[j], q.p.upper[j])
		}
		for _, c := range q.p.cons {
			scaled.AddConstraint(c.idx, c.val, c.op, c.rhs)
		}
		sol2, err := scaled.Solve(nil)
		if err != nil {
			return false
		}
		return math.Abs(sol2.Objective-3*sol.Objective) <= 1e-5*(1+math.Abs(sol.Objective))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
