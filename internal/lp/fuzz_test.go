package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Size bounds of the LPs FuzzLPProblem decodes.
const (
	fuzzMaxVars = 6
	fuzzMaxRows = 5
)

// byteReader yields its bytes in order and zeros once exhausted, so every
// byte string decodes to some LP.
type byteReader []byte

func (r *byteReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// decodeFuzzLP decodes one skeleton and two data vectors on it into two
// structurally identical problems. The layout is a header (variable count,
// row count, in-place flag, scale exponent k in [0, 9]), one (operator,
// variable mask) byte pair per row, then each data vector: the sense, per
// variable a lower bound in [-3, 3], a box width in [0, 7] or +Inf and an
// objective coefficient in [-4, 4], per skeleton entry a coefficient in
// [-4, 4], and per row a right-hand side in [-8, 8]. The bounds and the
// right-hand sides are multiplied by 10^k — the variables change unit, as
// flows do when rates are counted in bits — so the same small-integer LPs
// also arrive with |b| up to 8e9. inPlace asks for the second data vector
// to be written into the first problem instead of a rebuilt one.
func decodeFuzzLP(b []byte) (p1, p2 *Problem, inPlace bool, scale float64) {
	r := byteReader(b)
	n := 1 + int(r.next())%fuzzMaxVars
	m := int(r.next()) % (fuzzMaxRows + 1)
	inPlace = r.next()%2 == 1
	scale = math.Pow(10, float64(r.next()%10))
	ops := make([]Op, m)
	idx := make([][]int, m)
	for i := range ops {
		ops[i] = Op(1 + int(r.next())%3)
		mask := r.next()
		for j := 0; j < n; j++ {
			if mask>>j&1 == 1 {
				idx[i] = append(idx[i], j)
			}
		}
	}
	build := func() *Problem {
		p := NewProblem(n)
		if r.next()%2 == 1 {
			p.SetSense(Maximize)
		}
		for j := 0; j < n; j++ {
			lo := scale * float64(int(r.next())%7-3)
			hi := math.Inf(1)
			if w := int(r.next()) % 9; w < 8 {
				hi = lo + scale*float64(w)
			}
			p.SetBounds(j, lo, hi)
			p.SetObjectiveCoeff(j, float64(int(r.next())%9-4))
		}
		for i, op := range ops {
			val := make([]float64, len(idx[i]))
			for k := range val {
				val[k] = float64(int(r.next())%9 - 4)
			}
			if err := p.AddConstraint(idx[i], val, op, scale*float64(int(r.next())%17-8)); err != nil {
				panic(err) // decoder bug: data is small integers, indices a sorted mask
			}
		}
		return p
	}
	p1 = build()
	p2 = build()
	return p1, p2, inPlace, scale
}

// encodeFuzzLP is decodeFuzzLP's inverse for seeding: it projects p onto
// its first fuzzMaxVars variables and fuzzMaxRows rows and encodes p's and
// q's data on that skeleton at scale exponent k. q must share p's
// skeleton; right-hand sides are rounded and clamped into the decoder's
// range.
func encodeFuzzLP(p, q *Problem, inPlace bool, k int) []byte {
	n := min(p.nvars, fuzzMaxVars)
	m := min(len(p.cons), fuzzMaxRows)
	b := []byte{byte(n - 1), byte(m), 0, byte(k)}
	if inPlace {
		b[2] = 1
	}
	for _, c := range p.cons[:m] {
		var mask byte
		for _, j := range c.idx {
			if j < n {
				mask |= 1 << j
			}
		}
		b = append(b, byte(c.op-1), mask)
	}
	for _, d := range []*Problem{p, q} {
		b = append(b, byte(d.sense-1))
		for j := 0; j < n; j++ {
			w := byte(8)
			if !math.IsInf(d.upper[j], 1) {
				w = byte(min(d.upper[j]-d.lower[j], 7))
			}
			b = append(b, byte(d.lower[j]+3), w, byte(d.obj[j]+4))
		}
		for _, c := range d.cons[:m] {
			for k, j := range c.idx {
				if j < n {
					b = append(b, byte(c.val[k]+4))
				}
			}
			b = append(b, byte(math.Round(math.Max(-8, math.Min(8, c.rhs)))+8))
		}
	}
	return b
}

// agreeOn checks a solve of p against a reference solve of p whose bounds
// and right-hand sides were scaled up by scale: the same verdict and, when
// optimal, objectives within diffObjTol of scale + |reference| and a
// solution that satisfies p to 1e-6 * scale.
func agreeOn(p *Problem, scale float64, got *Solution, gotErr error, ref *Solution, refErr error) error {
	if gv, rv := verdict(gotErr), verdict(refErr); gv != rv {
		return fmt.Errorf("verdicts disagree: %q vs reference %q", gv, rv)
	}
	if refErr != nil {
		return nil
	}
	if diff := math.Abs(got.Objective - ref.Objective); diff > diffObjTol*(scale+math.Abs(ref.Objective)) {
		return fmt.Errorf("objective %v vs reference %v (diff %g)", got.Objective, ref.Objective, diff)
	}
	if !feasibleWithin(p, got.X, 1e-6*scale) {
		return fmt.Errorf("solution %v infeasible", got.X)
	}
	return nil
}

// FuzzLPProblem decodes bytes into a small LP and checks the sparse solve
// against the dense tableau oracle (a sparse numerical failure shows up as a
// verdict disagreement), then re-solves a second data vector on
// the same skeleton through the Solver that solved the first (warm when the
// retained basis stays primal feasible) and checks it against a one-shot
// solve. Both solves also run through the pivot-trace oracle: the
// production and the reference kernels must take the same pivots to the
// same bits. The seed corpus is drawn from randomLP and its perturbations.
func FuzzLPProblem(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for k := int64(0); k < 24; k++ {
		// Two draws from one seed: p and its perturbed twin q share a
		// skeleton.
		p := randomLP(rand.New(rand.NewSource(k)))
		q := randomLP(rand.New(rand.NewSource(k)))
		perturb(rng, q)
		perturb(rng, q)
		f.Add(encodeFuzzLP(p, q, k%3 == 0, int(k%10)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p1, p2, inPlace, scale := decodeFuzzLP(b)
		s := NewSolver()
		// The handle's first solve is the cold one-shot solve.
		sol, err := s.Solve(nil, p1)
		dense, denseErr := p1.SolveDense(nil)
		if err := agreeOn(p1, scale, sol, err, dense, denseErr); err != nil {
			t.Fatalf("sparse vs dense: %v\n%s", err, describeLP(p1))
		}
		o := newPivotTraceOracle()
		if err := o.check(p1); err != nil {
			t.Fatalf("pivot trace: %v\n%s", err, describeLP(p1))
		}
		target := p2
		if inPlace {
			p1.sense = p2.sense
			copy(p1.obj, p2.obj)
			copy(p1.lower, p2.lower)
			copy(p1.upper, p2.upper)
			for i := range p1.cons {
				copy(p1.cons[i].val, p2.cons[i].val)
				p1.cons[i].rhs = p2.cons[i].rhs
			}
			target = p1
		}
		warm, warmErr := s.Solve(nil, target)
		one, oneErr := target.Solve(nil)
		if err := agreeOn(target, scale, warm, warmErr, one, oneErr); err != nil {
			t.Fatalf("warm vs one-shot (in place %v, stats %+v): %v\n%s", inPlace, s.Stats(), err, describeLP(target))
		}
		if err := o.check(target); err != nil {
			t.Fatalf("pivot trace, second solve (in place %v): %v\n%s", inPlace, err, describeLP(target))
		}
	})
}
