package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// addDense adds the constraint row'x (op) rhs given as a dense coefficient
// row of length NumVars: its nonzeros become one AddConstraint row.
func addDense(p *Problem, row []float64, op Op, rhs float64) error {
	var idx []int
	var val []float64
	for j, v := range row {
		if v != 0 {
			idx = append(idx, j)
			val = append(val, v)
		}
	}
	return p.AddConstraint(idx, val, op, rhs)
}

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic; opt 36 at (2,6)).
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 3)
	p.SetObjectiveCoeff(1, 5)
	addDense(p, []float64{1, 0}, LE, 4)
	addDense(p, []float64{0, 2}, LE, 12)
	addDense(p, []float64{3, 2}, LE, 18)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 36, 1e-6) {
		t.Errorf("objective = %v, want 36", s.Objective)
	}
	if !approxEq(s.X[0], 2, 1e-6) || !approxEq(s.X[1], 6, 1e-6) {
		t.Errorf("X = %v, want [2 6]", s.X)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3. Opt: x=7,y=3 -> 23.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 2)
	p.SetObjectiveCoeff(1, 3)
	addDense(p, []float64{1, 1}, GE, 10)
	p.SetBounds(0, 2, math.Inf(1))
	p.SetBounds(1, 3, math.Inf(1))
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 23, 1e-6) {
		t.Errorf("objective = %v, want 23 (X=%v)", s.Objective, s.X)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 2y s.t. x + y = 5, x <= 3. Opt: x=3, y=2 -> 7.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 2)
	addDense(p, []float64{1, 1}, EQ, 5)
	p.SetBounds(0, 0, 3)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 7, 1e-6) {
		t.Errorf("objective = %v, want 7 (X=%v)", s.Objective, s.X)
	}
}

func TestUpperBoundFlip(t *testing.T) {
	// max x + y with x,y in [0,1] and x + y <= 1.5. Opt 1.5.
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	addDense(p, []float64{1, 1}, LE, 1.5)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 1.5, 1e-6) {
		t.Errorf("objective = %v, want 1.5", s.Objective)
	}
	if s.BoundFlips < 1 {
		t.Errorf("BoundFlips = %d, want >= 1: an entering variable should cross its box", s.BoundFlips)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(1)
	addDense(p, []float64{1}, GE, 5)
	addDense(p, []float64{1}, LE, 3)
	if _, err := p.Solve(nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestInfeasibleBoundsVsEquality(t *testing.T) {
	p := NewProblem(2)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	addDense(p, []float64{1, 1}, EQ, 3)
	if _, err := p.Solve(nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 1)
	addDense(p, []float64{0, 1}, LE, 5)
	if _, err := p.Solve(nil); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3 means x >= 3; min x -> 3.
	p := NewProblem(1)
	p.SetObjectiveCoeff(0, 1)
	addDense(p, []float64{-1}, LE, -3)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.X[0], 3, 1e-6) {
		t.Errorf("X = %v, want [3]", s.X)
	}
}

func TestShiftedLowerBounds(t *testing.T) {
	// min x + y, x in [5,10], y in [-2, 2] is invalid (negative lower
	// is allowed as long as finite); x+y >= 6 -> x=5, y=1? No: y can be
	// -2, so binding: x+y=6 with cheapest split; costs equal so any
	// split; objective = 6.
	p := NewProblem(2)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	p.SetBounds(0, 5, 10)
	p.SetBounds(1, -2, 2)
	addDense(p, []float64{1, 1}, GE, 6)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 6, 1e-6) {
		t.Errorf("objective = %v, want 6 (X=%v)", s.Objective, s.X)
	}
	if s.X[0] < 5-1e-9 || s.X[0] > 10+1e-9 || s.X[1] < -2-1e-9 || s.X[1] > 2+1e-9 {
		t.Errorf("X = %v violates bounds", s.X)
	}
}

func TestDegenerateLP(t *testing.T) {
	// A classically degenerate instance (Beale-like) to exercise the
	// Bland fallback.
	p := NewProblem(4)
	p.SetSense(Minimize)
	for j, c := range []float64{-0.75, 150, -0.02, 6} {
		p.SetObjectiveCoeff(j, c)
	}
	addDense(p, []float64{0.25, -60, -0.04, 9}, LE, 0)
	addDense(p, []float64{0.5, -90, -0.02, 3}, LE, 0)
	addDense(p, []float64{0, 0, 1, 0}, LE, 1)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, -0.05, 1e-6) {
		t.Errorf("objective = %v, want -0.05", s.Objective)
	}
}

func TestSparseConstraint(t *testing.T) {
	p := NewProblem(10)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(7, 1)
	p.AddConstraint([]int{7, 2}, []float64{1, 1}, LE, 4)
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.X[7], 4, 1e-6) {
		t.Errorf("X[7] = %v, want 4", s.X[7])
	}
}

func TestAddConstraintRejectsBadRows(t *testing.T) {
	for name, add := range map[string]func(p *Problem) error{
		"duplicate index": func(p *Problem) error {
			return p.AddConstraint([]int{0, 0}, []float64{1, 1}, LE, 4)
		},
		"nan coefficient": func(p *Problem) error {
			return p.AddConstraint([]int{0, 1}, []float64{1, math.NaN()}, LE, 4)
		},
		"inf coefficient": func(p *Problem) error {
			return p.AddConstraint([]int{0}, []float64{math.Inf(1)}, GE, 0)
		},
		"nan rhs": func(p *Problem) error {
			return p.AddConstraint([]int{0}, []float64{1}, EQ, math.NaN())
		},
		"inf rhs": func(p *Problem) error {
			return p.AddConstraint([]int{0}, []float64{1}, LE, math.Inf(1))
		},
	} {
		p := NewProblem(2)
		if err := add(p); !errors.Is(err, ErrBadConstraint) {
			t.Errorf("%s: err = %v, want ErrBadConstraint", name, err)
		}
		if got := p.NumConstraints(); got != 0 {
			t.Errorf("%s: rejected row was still added (%d constraints)", name, got)
		}
	}
}

func TestRowBuilderCoalescesDuplicates(t *testing.T) {
	// x added twice with coefficient 1 each coalesces to 2x <= 4 -> x <= 2.
	p := NewProblem(1)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 1)
	b := NewRowBuilder(p)
	b.Add(0, 1)
	b.Add(0, 1)
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if err := b.Constrain(LE, 4); err != nil {
		t.Fatal(err)
	}
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.X[0], 2, 1e-6) {
		t.Errorf("X = %v, want [2]", s.X)
	}
}

func TestRowBuilderResetsBetweenRows(t *testing.T) {
	// Two disjoint rows through one builder: x <= 2 then y <= 3, and the
	// builder must be clean after a rejected row too.
	p := NewProblem(2)
	p.SetSense(Maximize)
	p.SetObjectiveCoeff(0, 1)
	p.SetObjectiveCoeff(1, 1)
	b := NewRowBuilder(p)
	b.Add(0, 1)
	if err := b.Constrain(LE, 2); err != nil {
		t.Fatal(err)
	}
	b.Add(1, math.NaN())
	if err := b.Constrain(LE, 3); !errors.Is(err, ErrBadConstraint) {
		t.Fatalf("err = %v, want ErrBadConstraint", err)
	}
	b.Add(1, 1)
	if err := b.Constrain(LE, 3); err != nil {
		t.Fatal(err)
	}
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEq(s.Objective, 5, 1e-6) {
		t.Errorf("objective = %v, want 5 (X=%v)", s.Objective, s.X)
	}
}

func TestPanics(t *testing.T) {
	p := NewProblem(2)
	for name, fn := range map[string]func(){
		"bad bounds order":   func() { p.SetBounds(0, 2, 1) },
		"infinite lower":     func() { p.SetBounds(0, math.Inf(-1), 1) },
		"NaN objective":      func() { p.SetObjectiveCoeff(0, math.NaN()) },
		"infinite objective": func() { p.SetObjectiveCoeff(1, math.Inf(1)) },
		"index out of range": func() { p.AddConstraint([]int{5}, []float64{1}, LE, 1) },
		"len mismatch":       func() { p.AddConstraint([]int{0}, []float64{1, 2}, LE, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// bruteForce solves a small LP by enumerating all basic solutions: every
// choice of n tight constraints among {rows as equalities} union {bound
// constraints}. Assumes the optimum is attained at a vertex (feasible
// region bounded), which the random generator below guarantees by bounding
// all variables.
type lin struct {
	a []float64
	b float64
}

func bruteForce(p *Problem, t *testing.T) (float64, bool) {
	n := p.nvars
	// Build the full list of candidate tight constraints: each row, each
	// lower bound, each upper bound (finite only).
	var cands []lin
	for _, c := range p.cons {
		row := make([]float64, n)
		for k, j := range c.idx {
			row[j] += c.val[k]
		}
		cands = append(cands, lin{row, c.rhs})
	}
	for j := 0; j < n; j++ {
		row := make([]float64, n)
		row[j] = 1
		cands = append(cands, lin{row, p.lower[j]})
		if !math.IsInf(p.upper[j], 1) {
			row2 := make([]float64, n)
			row2[j] = 1
			cands = append(cands, lin{row2, p.upper[j]})
		}
	}
	best := math.Inf(1)
	if p.sense == Maximize {
		best = math.Inf(-1)
	}
	found := false
	idx := make([]int, n)
	var rec func(pos, from int)
	rec = func(pos, from int) {
		if pos == n {
			x, ok := solveSquare(cands, idx, n)
			if !ok || !feasible(p, x) {
				return
			}
			v := p.Value(x)
			if p.sense == Maximize {
				if v > best {
					best = v
				}
			} else if v < best {
				best = v
			}
			found = true
			return
		}
		for i := from; i < len(cands); i++ {
			idx[pos] = i
			rec(pos+1, i+1)
		}
	}
	rec(0, 0)
	return best, found
}

func solveSquare(cands []lin, idx []int, n int) ([]float64, bool) {
	m := make([][]float64, n)
	for r := 0; r < n; r++ {
		m[r] = append(append([]float64(nil), cands[idx[r]].a...), cands[idx[r]].b)
	}
	// Gaussian elimination with partial pivoting.
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-9 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		x[r] = m[r][n] / m[r][r]
	}
	return x, true
}

func feasible(p *Problem, x []float64) bool { return feasibleWithin(p, x, 1e-6) }

// feasibleWithin is feasible with an absolute tolerance tol on every row and
// bound, for problems whose data were scaled up by a known factor.
func feasibleWithin(p *Problem, x []float64, tol float64) bool {
	for j := 0; j < p.nvars; j++ {
		if x[j] < p.lower[j]-tol || x[j] > p.upper[j]+tol {
			return false
		}
	}
	for _, c := range p.cons {
		var lhs float64
		for k, j := range c.idx {
			lhs += c.val[k] * x[j]
		}
		switch c.op {
		case LE:
			if lhs > c.rhs+tol {
				return false
			}
		case GE:
			if lhs < c.rhs-tol {
				return false
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return false
			}
		}
	}
	return true
}

func TestSimplexMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	solved := 0
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(3)
		p := NewProblem(n)
		if rng.Intn(2) == 0 {
			p.SetSense(Maximize)
		}
		for j := 0; j < n; j++ {
			p.SetObjectiveCoeff(j, float64(rng.Intn(21)-10))
			p.SetBounds(j, 0, float64(1+rng.Intn(8))) // bounded region
		}
		rows := 1 + rng.Intn(4)
		for r := 0; r < rows; r++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = float64(rng.Intn(9) - 4)
			}
			op := []Op{LE, GE, EQ}[rng.Intn(3)]
			rhs := float64(rng.Intn(15) - 3)
			addDense(p, row, op, rhs)
		}
		want, feasOK := bruteForce(p, t)
		s, err := p.Solve(nil)
		if !feasOK {
			if err == nil && feasible(p, s.X) {
				// Brute force only visits vertices; if it found
				// nothing but simplex found a feasible point the
				// brute-force enumeration was insufficient, which
				// cannot happen for bounded regions. Flag it.
				t.Fatalf("trial %d: simplex found %v but brute force says infeasible", trial, s.X)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: simplex error %v but brute force found optimum %v", trial, err, want)
		}
		if !feasible(p, s.X) {
			t.Fatalf("trial %d: simplex solution %v infeasible", trial, s.X)
		}
		if !approxEq(s.Objective, want, 1e-5*(1+math.Abs(want))) {
			t.Fatalf("trial %d: simplex objective %v, brute force %v", trial, s.Objective, want)
		}
		solved++
	}
	if solved < 30 {
		t.Fatalf("only %d/120 random instances were feasible; generator too harsh", solved)
	}
}

func TestMediumTransportation(t *testing.T) {
	// A 4x4 transportation problem with known optimum, exercising
	// equality rows at moderate scale.
	supply := []float64{20, 30, 25, 25}
	demand := []float64{15, 35, 20, 30}
	cost := [][]float64{
		{8, 6, 10, 9},
		{9, 12, 13, 7},
		{14, 9, 16, 5},
		{7, 11, 8, 10},
	}
	nv := 16
	p := NewProblem(nv)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			p.SetObjectiveCoeff(i*4+j, cost[i][j])
		}
	}
	for i := 0; i < 4; i++ {
		idx := make([]int, 4)
		val := make([]float64, 4)
		for j := 0; j < 4; j++ {
			idx[j], val[j] = i*4+j, 1
		}
		p.AddConstraint(idx, val, EQ, supply[i])
	}
	for j := 0; j < 4; j++ {
		idx := make([]int, 4)
		val := make([]float64, 4)
		for i := 0; i < 4; i++ {
			idx[i], val[i] = i*4+j, 1
		}
		p.AddConstraint(idx, val, EQ, demand[j])
	}
	s, err := p.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verify optimality via complementary slackness proxy: compare to a
	// known-good value computed by independent basis enumeration: 730.
	if !approxEq(s.Objective, 730, 1e-6) {
		t.Errorf("objective = %v, want 730", s.Objective)
	}
}
