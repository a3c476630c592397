// Package lputil factors the "build → solve → extract" plumbing shared by
// every LP call site in the library (the reduced Eq. (7) placement LP, the
// per-path Eq. (15) LP, the MMSFP multicommodity LP, and the FC-FR LP):
// solving with a consistent error label, and copying blocks of the solution
// vector into row/column grids with the call site's clamping policy. It
// deliberately depends only on internal/lp so both placement and routing
// can use it without an import cycle through internal/core.
package lputil

import (
	"context"
	"fmt"

	"jcr/internal/lp"
)

// Solve runs p.SolveContext and wraps any failure as "<label>: <err>", the
// labeling convention every call site used by hand before. The wrap
// preserves errors.Is on the lp sentinel errors.
func Solve(ctx context.Context, label string, p *lp.Problem) (*lp.Solution, error) {
	return SolveWith(ctx, nil, label, p)
}

// SolveWith is Solve through a reusable lp.Solver handle: s carries the
// previous solve's optimal basis and factorization, so a structurally
// repeated problem warm-starts instead of re-running phase 1 from scratch
// (see internal/lp's Solver). A nil s solves one-shot, identical to Solve,
// so call sites can thread an optional handle without branching.
func SolveWith(ctx context.Context, s *lp.Solver, label string, p *lp.Problem) (*lp.Solution, error) {
	sol, err := s.SolveContext(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	return sol, nil
}

// Clamp01 hard-clamps v into [0, 1] (the Eq. (7) fractional-x policy).
func Clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Snap01 returns a clamp that snaps values within tol of 0 or 1 to the
// exact integer and keeps interior values (the pipage-rounding input
// policy).
func Snap01(tol float64) func(float64) float64 {
	return func(v float64) float64 {
		if v < tol {
			return 0
		}
		if v > 1-tol {
			return 1
		}
		return v
	}
}

// Floor returns a clamp that zeroes values at or below eps (the arc-flow
// extraction policy).
func Floor(eps float64) func(float64) float64 {
	return func(v float64) float64 {
		if v <= eps {
			return 0
		}
		return v
	}
}

// ExtractGrid copies the block x[offset : offset+rows*cols], laid out row
// major, into a rows x cols grid, applying clamp to every entry (nil means
// copy verbatim).
func ExtractGrid(x []float64, offset, rows, cols int, clamp func(float64) float64) [][]float64 {
	out := make([][]float64, rows)
	for r := 0; r < rows; r++ {
		row := make([]float64, cols)
		copy(row, x[offset+r*cols:offset+(r+1)*cols])
		if clamp != nil {
			for c := range row {
				row[c] = clamp(row[c])
			}
		}
		out[r] = row
	}
	return out
}
