package lp

import (
	"errors"
	"math"
)

// errNumeric tags internal numerical failures of the sparse path (singular
// or near-singular basis factorization). Solve catches it and retries
// with the dense oracle; it never escapes the package.
var errNumeric = errors.New("lp: sparse basis factorization failed")

// luPivotTol is the absolute magnitude below which a factorization pivot is
// treated as zero and the basis declared numerically singular.
const luPivotTol = 1e-12

// luFactor is a sparse LU factorization of a basis matrix B with partial
// pivoting: P B = L U, stored column-wise. L is unit lower triangular (the
// unit diagonal is implicit), U strictly upper triangular with its diagonal
// split into udiag. Row indices of both factors are in pivot order; pinv
// maps an original row index to its pivot position.
type luFactor struct {
	m     int
	lcp   []int // L column pointers, len m+1
	li    []int
	lx    []float64
	ucp   []int // U column pointers, len m+1
	ui    []int
	ux    []float64
	udiag []float64
	pinv  []int

	// Row-major mirrors of both factors, rebuilt after every factorization:
	// row j's entries of U (columns k > j) and of L (columns k < j), both
	// with columns ascending. btran's scatter-form triangular solves walk
	// them so a row whose solution entry is exactly zero costs one load and
	// one compare instead of a gather over its column — on the slack-heavy
	// bases of a cold solve most unit-rhs BTRANs touch a small fraction of
	// the rows.
	urp []int
	urc []int
	urx []float64
	lrp []int
	lrc []int
	lrx []float64
}

// intsFor returns s resized to n, reusing its backing array when it fits.
func intsFor(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// floatsFor is intsFor for float64 slices.
func floatsFor(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// luScratch is the reusable workspace of luFactorize: five length-m work
// vectors that a one-shot factorization would allocate fresh every time. A
// basisLU owns one, so warm-started solvers refactorize without churning
// the allocator. The algorithm's own invariants keep x and marked clean
// between uses (every column loop clears what it touched, including the
// failure path), so reuse needs no explicit reset.
type luScratch struct {
	x      []float64
	marked []bool
	topo   []int // reach pattern in topological order, topo[top:]
	stack  []int // DFS node stack
	pstack []int // DFS per-node resume positions
}

// ensure grows the workspace to cover m rows.
func (ws *luScratch) ensure(m int) {
	if len(ws.x) < m {
		ws.x = make([]float64, m)
		ws.marked = make([]bool, m)
		ws.topo = make([]int, m)
		ws.stack = make([]int, m)
		ws.pstack = make([]int, m)
	}
}

// luFactorize computes a left-looking Gilbert-Peierls factorization of the
// basis matrix whose k-th column is column basis[k] of f. Each column is
// obtained by a sparse triangular solve against the L computed so far (the
// nonzero pattern comes from a depth-first reach over L's graph), then the
// largest remaining entry is chosen as pivot. ws supplies the work vectors
// (nil allocates a private set). old, when non-nil and dimensioned for f,
// donates its storage to the new factorization — the steady refactorization
// cadence of a long solve then recycles two factors' worth of arrays instead
// of growing fresh ones each time. On error a recycled old is left invalid;
// callers abandon the basis on that path.
func luFactorize(f *stdForm, basis []int, ws *luScratch, old *luFactor) (*luFactor, error) {
	m := f.m
	lu := old
	if lu == nil || lu.m != m {
		lu = &luFactor{
			lcp:   make([]int, 1, m+1),
			ucp:   make([]int, 1, m+1),
			udiag: make([]float64, m),
			pinv:  make([]int, m),
		}
	} else {
		lu.lcp = lu.lcp[:1]
		lu.ucp = lu.ucp[:1]
		lu.li = lu.li[:0]
		lu.lx = lu.lx[:0]
		lu.ui = lu.ui[:0]
		lu.ux = lu.ux[:0]
	}
	lu.m = m
	for i := range lu.pinv {
		lu.pinv[i] = -1
	}
	if ws == nil {
		ws = &luScratch{}
	}
	ws.ensure(m)
	x, marked := ws.x, ws.marked
	topo, stack, pstack := ws.topo, ws.stack, ws.pstack
	for k := 0; k < m; k++ {
		col := basis[k]
		// Symbolic step: pattern of the solution of L z = A_col.
		top := m
		for p := f.colPtr[col]; p < f.colPtr[col+1]; p++ {
			if i := f.rowInd[p]; !marked[i] {
				top = lu.reach(i, marked, stack, pstack, topo, top)
			}
		}
		// Numeric step: scatter the column, then eliminate along the
		// topological order (rows already pivoted have L columns).
		for p := f.colPtr[col]; p < f.colPtr[col+1]; p++ {
			x[f.rowInd[p]] = f.values[p]
		}
		for t := top; t < m; t++ {
			i := topo[t]
			pi := lu.pinv[i]
			if pi < 0 {
				continue
			}
			xi := x[i]
			if xi == 0 {
				continue
			}
			for p := lu.lcp[pi]; p < lu.lcp[pi+1]; p++ {
				x[lu.li[p]] -= lu.lx[p] * xi
			}
		}
		// Partial pivoting over the not-yet-pivoted rows.
		pivRow, pivAbs := -1, 0.0
		for t := top; t < m; t++ {
			i := topo[t]
			if lu.pinv[i] < 0 {
				if a := math.Abs(x[i]); a > pivAbs {
					pivAbs, pivRow = a, i
				}
			}
		}
		if pivRow < 0 || pivAbs <= luPivotTol {
			for t := top; t < m; t++ {
				x[topo[t]] = 0
				marked[topo[t]] = false
			}
			return nil, errNumeric
		}
		d := x[pivRow]
		lu.pinv[pivRow] = k
		lu.udiag[k] = d
		for t := top; t < m; t++ {
			i := topo[t]
			v := x[i]
			x[i] = 0
			marked[i] = false
			if v == 0 || i == pivRow {
				continue
			}
			if pi := lu.pinv[i]; pi >= 0 {
				lu.ui = append(lu.ui, pi)
				lu.ux = append(lu.ux, v)
			} else {
				lu.li = append(lu.li, i)
				lu.lx = append(lu.lx, v/d)
			}
		}
		lu.lcp = append(lu.lcp, len(lu.li))
		lu.ucp = append(lu.ucp, len(lu.ui))
	}
	// Remap L's row indices from original rows to pivot positions; every
	// row is pivoted by now, so the map is total.
	for p := range lu.li {
		lu.li[p] = lu.pinv[lu.li[p]]
	}
	lu.buildRowMirrors()
	return lu, nil
}

// buildRowMirrors derives the row-major views of L and U that btran's
// scatter-form solves walk. Both factors are indexed by pivot position here,
// so "row j" means pivot row j. The counting sort uses the pointer arrays
// themselves as write cursors (shifted back afterwards), needing no extra
// scratch; iterating columns in ascending order keeps each row's column list
// sorted, so the scatter order is deterministic.
func (lu *luFactor) buildRowMirrors() {
	m := lu.m
	lu.urp = intsFor(lu.urp, m+1)
	for j := range lu.urp {
		lu.urp[j] = 0
	}
	for _, j := range lu.ui {
		lu.urp[j+1]++
	}
	for j := 0; j < m; j++ {
		lu.urp[j+1] += lu.urp[j]
	}
	lu.urc = intsFor(lu.urc, len(lu.ui))
	lu.urx = floatsFor(lu.urx, len(lu.ux))
	for k := 0; k < m; k++ {
		for p := lu.ucp[k]; p < lu.ucp[k+1]; p++ {
			j := lu.ui[p]
			s := lu.urp[j]
			lu.urc[s] = k
			lu.urx[s] = lu.ux[p]
			lu.urp[j] = s + 1
		}
	}
	for j := m; j > 0; j-- {
		lu.urp[j] = lu.urp[j-1]
	}
	lu.urp[0] = 0

	lu.lrp = intsFor(lu.lrp, m+1)
	for j := range lu.lrp {
		lu.lrp[j] = 0
	}
	for _, j := range lu.li {
		lu.lrp[j+1]++
	}
	for j := 0; j < m; j++ {
		lu.lrp[j+1] += lu.lrp[j]
	}
	lu.lrc = intsFor(lu.lrc, len(lu.li))
	lu.lrx = floatsFor(lu.lrx, len(lu.lx))
	for k := 0; k < m; k++ {
		for p := lu.lcp[k]; p < lu.lcp[k+1]; p++ {
			j := lu.li[p]
			s := lu.lrp[j]
			lu.lrc[s] = k
			lu.lrx[s] = lu.lx[p]
			lu.lrp[j] = s + 1
		}
	}
	for j := m; j > 0; j-- {
		lu.lrp[j] = lu.lrp[j-1]
	}
	lu.lrp[0] = 0
}

// reach runs an iterative depth-first search from start over the graph of
// the partially built L (node i points to the rows of L's column pinv[i]),
// pushing finished nodes onto topo[top-1], topo[top-2], ... so topo[top:]
// ends up in topological order for the triangular solve.
func (lu *luFactor) reach(start int, marked []bool, stack, pstack, topo []int, top int) int {
	head := 0
	stack[0] = start
	for head >= 0 {
		j := stack[head]
		if !marked[j] {
			marked[j] = true
			if pj := lu.pinv[j]; pj >= 0 {
				pstack[head] = lu.lcp[pj]
			} else {
				pstack[head] = 0
			}
		}
		done := true
		if pj := lu.pinv[j]; pj >= 0 {
			for p := pstack[head]; p < lu.lcp[pj+1]; p++ {
				if i := lu.li[p]; !marked[i] {
					pstack[head] = p + 1
					head++
					stack[head] = i
					done = false
					break
				}
			}
		}
		if done {
			head--
			top--
			topo[top] = j
		}
	}
	return top
}

// ftran solves B v = b in place: on entry v holds b indexed by constraint
// row, on exit it holds the solution indexed by basis position. tmp is a
// caller-provided scratch vector of length m.
func (lu *luFactor) ftran(v, tmp []float64) {
	for i := 0; i < lu.m; i++ {
		tmp[lu.pinv[i]] = v[i]
	}
	for j := 0; j < lu.m; j++ { // L solve (unit diagonal)
		if xj := tmp[j]; xj != 0 {
			for p := lu.lcp[j]; p < lu.lcp[j+1]; p++ {
				tmp[lu.li[p]] -= lu.lx[p] * xj
			}
		}
	}
	for j := lu.m - 1; j >= 0; j-- { // U solve (zero rows skip the division too)
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		xj /= lu.udiag[j]
		tmp[j] = xj
		for p := lu.ucp[j]; p < lu.ucp[j+1]; p++ {
			tmp[lu.ui[p]] -= lu.ux[p] * xj
		}
	}
	copy(v, tmp)
}

// btran solves B' y = c in place: on entry v holds c indexed by basis
// position, on exit it holds y indexed by constraint row. tmp is scratch of
// length m. Both triangular solves run in scatter form over the row-major
// mirrors: a finished solution entry pushes its contribution into the rows
// that reference it, so an entry that is exactly zero — the common case for
// the unit right-hand sides of pivot-row pricing — costs one compare and no
// memory traffic, making the work proportional to the solution's support
// instead of nnz(L)+nnz(U).
func (lu *luFactor) btran(v, tmp []float64) {
	m := lu.m
	copy(tmp, v[:m])
	for j := 0; j < m; j++ { // U' solve, forward scatter (row j feeds k > j)
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		xj /= lu.udiag[j]
		tmp[j] = xj
		for p := lu.urp[j]; p < lu.urp[j+1]; p++ {
			tmp[lu.urc[p]] -= lu.urx[p] * xj
		}
	}
	for j := m - 1; j >= 0; j-- { // L' solve, backward scatter (row j feeds k < j)
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		for p := lu.lrp[j]; p < lu.lrp[j+1]; p++ {
			tmp[lu.lrc[p]] -= lu.lrx[p] * xj
		}
	}
	for i := 0; i < m; i++ {
		v[i] = tmp[lu.pinv[i]]
	}
}

// eta is one product-form basis update: replacing the variable at basis
// position r with an entering column whose FTRAN direction was d turns the
// basis B into B·E, where E is the identity with column r set to d. Only the
// nonzero off-pivot entries of d are stored.
type eta struct {
	r   int
	dr  float64
	idx []int
	val []float64
}

// basisLU is the working basis representation of the revised simplex: an LU
// factorization plus a product-form file of eta updates accumulated since
// the last refactorization. Refactorization is no longer tied to a fixed
// update count: update reports when the factorization should be rebuilt,
// either because the incoming pivot is too small relative to its direction
// (a Forrest–Tomlin-style stability trigger) or because the eta file has
// outgrown the LU enough that replaying it costs more than refactorizing
// (a work trigger).
type basisLU struct {
	lu   *luFactor
	etas []eta
	tmp  []float64
	ws   luScratch

	// Capture scratch of update: the direction's nonzeros are gathered here
	// in the same pass that measures stability, then the buffers are swapped
	// into the appended eta (the eta's previous buffers become the next
	// scratch), so a capture is one sweep over d and zero copies.
	scrIdx []int
	scrVal []float64

	fileNNZ int // off-pivot nonzeros currently in the eta file

	// Cumulative counters since the basisLU was created; the Solver
	// surfaces per-solve deltas (SolverStats.Refactors, AvgEtaNNZ).
	refactors int64 // luFactorize calls, including the initial one
	updates   int64 // eta updates appended
	updateNNZ int64 // total off-pivot nonzeros across appended etas

	// forceUnstableUpdate, when true, makes the next eta update report
	// itself as unstable regardless of its pivot magnitude, exercising the
	// stability-triggered refactorization path on demand. Set only by
	// tests; the update that consumes it resets it.
	forceUnstableUpdate bool
}

const (
	// ftStabTol is the relative stability floor of an eta update: if the
	// pivot magnitude |d_r| falls below ftStabTol times the largest entry
	// of the direction, folding the exchange into the eta file would
	// amplify error by ~1/ftStabTol, so the basis is refactorized instead.
	ftStabTol = 1e-9
	// etaWorkBudget triggers refactorization once replaying the eta file
	// costs more than this multiple of an LU solve, measured in nonzeros.
	etaWorkBudget = 2.0
	// maxEtas hard-caps the eta file against pathological cases where the
	// work trigger never fires (e.g. an extremely dense LU).
	maxEtas = 512
)

func newBasisLU(f *stdForm, basis []int) (*basisLU, error) {
	b := &basisLU{tmp: make([]float64, f.m)}
	lu, err := luFactorize(f, basis, &b.ws, nil)
	if err != nil {
		return nil, err
	}
	b.lu = lu
	b.refactors++
	return b, nil
}

// refactor rebuilds the LU from the current basis and drops the eta file.
// The rebuild recycles the retired factor's storage, and the truncation
// keeps the retired etas (and their idx/val backing arrays) live in the
// slice's capacity so update can recycle them. On factorization failure the
// retained lu is left invalid — every caller abandons the basis (cold or
// dense fallback) on that path.
func (b *basisLU) refactor(f *stdForm, basis []int) error {
	lu, err := luFactorize(f, basis, &b.ws, b.lu)
	if err != nil {
		return err
	}
	b.lu = lu
	b.etas = b.etas[:0]
	b.fileNNZ = 0
	b.refactors++
	return nil
}

// luNNZ is the nonzero count of the factorization (unit diagonal implied).
func (b *basisLU) luNNZ() int {
	return len(b.lu.li) + len(b.lu.ui) + b.lu.m
}

// update folds the exchange at basis position r with FTRAN direction d into
// the basis representation and reports whether the caller must refactorize
// now. A true return means the eta was NOT appended: either the pivot d[r]
// is unstably small relative to the direction (appending would poison every
// later FTRAN/BTRAN, so the exchange is realized by refactorizing from the
// already-updated basis array instead) or the eta file has outgrown its work
// budget. The ratio test guarantees |d[r]| is nonzero, but not that it is
// large. Storage is pooled two ways: the direction's nonzeros are gathered
// into a persistent scratch in the same pass that measures stability, and on
// append the scratch buffers are swapped into the eta slot (retired slots
// donate their buffers back), so steady-state pivoting neither allocates nor
// copies.
//
//jcr:hotpath
func (b *basisLU) update(r int, d []float64) (needRefactor bool) {
	if cap(b.scrIdx) < len(d) {
		b.scrIdx = make([]int, len(d))
		b.scrVal = make([]float64, len(d))
	}
	idx, val := b.scrIdx[:len(d)], b.scrVal[:len(d)]
	nnz := 0
	dmax := 0.0
	for i, v := range d {
		if v != 0 {
			if a := math.Abs(v); a > dmax {
				dmax = a
			}
			if i != r {
				idx[nnz] = i
				val[nnz] = v
				nnz++
			}
		}
	}
	if b.forceUnstableUpdate {
		b.forceUnstableUpdate = false
		return true
	}
	if math.Abs(d[r]) <= ftStabTol*dmax {
		return true // stability trigger: rebuild instead of appending
	}
	if len(b.etas) >= maxEtas ||
		float64(b.fileNNZ+nnz) > etaWorkBudget*float64(b.luNNZ()) {
		return true // work trigger: replaying the file beats its budget
	}
	var e eta
	if n := len(b.etas); n < cap(b.etas) {
		b.etas = b.etas[:n+1]
		e = b.etas[n] // recycled slot: donates its buffers to the scratch
	} else {
		b.etas = append(b.etas, eta{})
	}
	e.r, e.dr = r, d[r]
	e.idx, b.scrIdx = b.scrIdx[:nnz], e.idx
	e.val, b.scrVal = b.scrVal[:nnz], e.val
	b.etas[len(b.etas)-1] = e
	b.fileNNZ += nnz
	b.updates++
	b.updateNNZ += int64(nnz)
	return false
}

// ftran solves B v = b for the current basis (LU plus eta updates, applied
// oldest first). An eta whose pivot entry of v is exactly zero is a no-op
// (its scatter would subtract exact zeros) and is skipped, which matters for
// the sparse directions of entering-column FTRANs.
func (b *basisLU) ftran(v []float64) {
	b.lu.ftran(v, b.tmp)
	for t := range b.etas {
		e := &b.etas[t]
		xr := v[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.dr
		for k, i := range e.idx {
			v[i] -= e.val[k] * xr
		}
		v[e.r] = xr
	}
}

// btran solves B' y = c for the current basis (eta transposes newest first,
// then the LU).
func (b *basisLU) btran(v []float64) {
	for t := len(b.etas) - 1; t >= 0; t-- {
		e := &b.etas[t]
		s := v[e.r]
		for k, i := range e.idx {
			s -= e.val[k] * v[i]
		}
		v[e.r] = s / e.dr
	}
	b.lu.btran(v, b.tmp)
}
