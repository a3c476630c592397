// Package lputil factors the "solve → extract" plumbing shared by every LP
// call site in the library (the reduced Eq. (7) placement LP, the per-path
// Eq. (15) LP, the MMSFP multicommodity LP, and the FC-FR LP): copying
// blocks of the solution vector into row/column grids with the call site's
// clamping policy. It depends on nothing in the module, so both placement
// and routing can use it without an import cycle through internal/core.
package lputil

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
