package lp

import (
	"errors"
	"math"
	"slices"
)

// errNumeric tags numerical failures of the sparse path (singular or
// near-singular basis factorization). A warm solve that hits it falls back
// to a cold one; a cold solve returns it.
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
	perm  []int // perm[k] = the original row pivoted at position k (pinv's inverse)

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
			perm:  make([]int, m),
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
	for i, k := range lu.pinv {
		lu.perm[k] = i
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

// hvec is a length-m work vector that carries its nonzero pattern: nz lists
// in ascending order every position that may hold a nonzero (an exact zero
// left by cancellation may stay listed), and every unlisted position holds
// +0. A dense vector keeps no list, and any position may be nonzero. Every
// pass over an hvec walks its list, or 0..m-1 when dense; both visit the
// nonzeros in the same ascending order, so a kernel's arithmetic does not
// depend on which one it got.
type hvec struct {
	x     []float64
	nz    []int
	dense bool
}

func newHvec(m int) hvec { return hvec{x: make([]float64, m)} }

// index returns the positions a pass over v visits: its pattern, or all
// (the list 0..m-1) when v is dense.
func (v *hvec) index(all []int) []int {
	if v.dense {
		return all
	}
	return v.nz
}

// clear zeroes v and empties its pattern.
func (v *hvec) clear() {
	if v.dense {
		clear(v.x)
	} else {
		for _, i := range v.nz {
			v.x[i] = 0
		}
	}
	v.nz = v.nz[:0]
	v.dense = false
}

// setPattern records list as v's pattern; a list naming all m positions
// makes v dense. The first sparse pattern sizes the list's storage to m,
// so the kernels can grow a pattern in place.
func (v *hvec) setPattern(list []int, m int) {
	v.nz = v.nz[:0]
	v.dense = len(list) == m
	if !v.dense {
		if cap(v.nz) < m {
			v.nz = make([]int, 0, m)
		}
		v.nz = append(v.nz, list...)
	}
}

// eta is one product-form basis update: replacing the variable at basis
// position r with an entering column whose FTRAN direction was d turns the
// basis B into B·E, where E is the identity with column r set to d. Only the
// nonzero off-pivot entries of d are stored, in the basisLU's eta arena at
// [from, to), ascending by position. prevPiv is the newest older eta with
// the same pivot position r, or -1.
type eta struct {
	r        int
	dr       float64
	from, to int
	prevPiv  int
}

// basisLU is the working basis representation of the revised simplex: an LU
// factorization plus a product-form file of eta updates accumulated since
// the last refactorization. Refactorization is no longer tied to a fixed
// update count: update reports when the factorization should be rebuilt,
// either because the incoming pivot is too small relative to its direction
// (a Forrest–Tomlin-style stability trigger) or because the eta file has
// outgrown the LU enough that replaying it costs more than refactorizing
// (a work trigger).
//
// Its solves are hypersparse (Hall & McKinnon): they take and return an
// hvec, and a triangular solve whose right-hand side is short walks only
// the positions its symbolic reach names, sorted into the order the dense
// loop would visit them, so every entry receives its updates in the dense
// loop's order and the result is bit-for-bit the dense one. A reach past
// the density cut runs the dense loop instead.
type basisLU struct {
	lu   *luFactor
	etas []eta
	ws   luScratch

	// The eta arena: every eta's off-pivot entries, appended in file order
	// and truncated by refactor, so steady-state pivoting reuses its
	// capacity instead of allocating per update. The file is also linked
	// by position, newest first, for the sparse BTRAN: posHead[i] is the
	// newest arena entry at position i and etaNext[p] the next older one
	// (-1 ends a chain), etaOwner[p] the eta holding entry p; pivHead[i]
	// is the newest eta pivoting at i. act flags the etas a sparse BTRAN
	// must apply; it is all false between solves. The three are allocated
	// by the first appended eta.
	etaIdx   []int
	etaVal   []float64
	etaNext  []int
	etaOwner []int
	posHead  []int
	pivHead  []int
	act      []bool

	// Solve workspace, all of length m. tmp holds +0 everywhere between
	// solves. all is 0..m-1, the visiting list of a dense pass. stamp and
	// epoch mark set membership in O(1) without clearing; setA and setB
	// hold reach lists. The first sparse solve allocates stamp, setA and
	// setB, so a solve that never pivots pays for none of them.
	tmp   []float64
	all   []int
	stamp []int64
	epoch int64
	setA  []int
	setB  []int
	cut   int // reach size above which a triangular solve runs dense

	fileNNZ int // off-pivot nonzeros currently in the eta file

	// Cumulative counters since the basisLU was created; the Solver
	// surfaces per-solve deltas (SolverStats.Refactors, EtaNNZ).
	refactors int64 // luFactorize calls, including the initial one
	updates   int64 // eta updates appended
	updateNNZ int64 // total off-pivot nonzeros across appended etas
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
	// hyperDenom sets the density cut of the triangular solves at m /
	// hyperDenom positions: past it the sorted reach costs more than the
	// dense sweep it replaces (Hall & McKinnon switch near 10%).
	hyperDenom = 10
)

func newBasisLU(f *stdForm, basis []int) (*basisLU, error) {
	m := f.m
	b := &basisLU{
		tmp: make([]float64, m),
		all: make([]int, m),
		cut: m / hyperDenom,
	}
	for i := range b.all {
		b.all[i] = i
	}
	lu, err := luFactorize(f, basis, &b.ws, nil)
	if err != nil {
		return nil, err
	}
	b.lu = lu
	b.refactors++
	return b, nil
}

// refactor rebuilds the LU from the current basis and drops the eta file.
// The rebuild recycles the retired factor's storage and the truncation
// keeps the eta arena's capacity. On factorization failure the retained lu
// is left invalid — every caller abandons the basis on that path (a warm
// solve for a cold one, a cold solve with the error).
func (b *basisLU) refactor(f *stdForm, basis []int) error {
	lu, err := luFactorize(f, basis, &b.ws, b.lu)
	if err != nil {
		return err
	}
	b.lu = lu
	if b.posHead != nil {
		for _, i := range b.etaIdx {
			b.posHead[i] = -1
		}
		for _, e := range b.etas {
			b.pivHead[e.r] = -1
		}
	}
	b.etas = b.etas[:0]
	b.etaIdx = b.etaIdx[:0]
	b.etaVal = b.etaVal[:0]
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
// large. The capture walks d's pattern, gathering the nonzeros straight into
// the eta arena while it measures stability.
//
//jcr:hotpath
func (b *basisLU) update(r int, d *hvec) (needRefactor bool) {
	list := d.index(b.all)
	from := len(b.etaIdx)
	idx := grow(b.etaIdx, from+len(list))[:from+len(list)]
	val := grow(b.etaVal, from+len(list))[:from+len(list)]
	to := from
	dmax := 0.0
	for _, i := range list {
		if v := d.x[i]; v != 0 {
			if a := math.Abs(v); a > dmax {
				dmax = a
			}
			if i != r {
				idx[to] = i
				val[to] = v
				to++
			}
		}
	}
	nnz := to - from
	if math.Abs(d.x[r]) <= ftStabTol*dmax {
		return true // stability trigger: rebuild instead of appending
	}
	if len(b.etas) >= maxEtas ||
		float64(b.fileNNZ+nnz) > etaWorkBudget*float64(b.luNNZ()) {
		return true // work trigger: replaying the file beats its budget
	}
	t := len(b.etas)
	if b.posHead == nil {
		b.posHead = make([]int, len(b.all))
		b.pivHead = make([]int, len(b.all))
		for i := range b.posHead {
			b.posHead[i], b.pivHead[i] = -1, -1
		}
		b.act = make([]bool, maxEtas)
	}
	b.etaIdx, b.etaVal = idx[:to], val[:to]
	b.etaNext = grow(b.etaNext, to)[:to]
	b.etaOwner = grow(b.etaOwner, to)[:to]
	for p := from; p < to; p++ {
		i := idx[p]
		b.etaNext[p] = b.posHead[i]
		b.posHead[i] = p
		b.etaOwner[p] = t
	}
	//jcrlint:allow hot-alloc: amortized growth, the eta file is capped at maxEtas entries and truncated (capacity kept) by refactor
	b.etas = append(b.etas, eta{r: r, dr: d.x[r], from: from, to: to, prevPiv: b.pivHead[r]})
	b.pivHead[r] = t
	b.fileNNZ += nnz
	b.updates++
	b.updateNNZ += int64(nnz)
	return false
}

// grow returns s with capacity for at least n entries, keeping its
// contents; growth doubles, so a steady-state arena stops allocating.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s
	}
	g := make([]T, len(s), max(n, 2*cap(s)))
	copy(g, s)
	return g
}

// activate flags for the sparse BTRAN every eta older than below whose
// transpose reads position i: those storing an entry at i and those
// pivoting at i. It returns the number of chain links it walked.
func (b *basisLU) activate(i, below int) int {
	walked := 0
	for p := b.posHead[i]; p >= 0; p = b.etaNext[p] {
		if t := b.etaOwner[p]; t < below {
			b.act[t] = true
		}
		walked++
	}
	for t := b.pivHead[i]; t >= 0; t = b.etas[t].prevPiv {
		if t < below {
			b.act[t] = true
		}
		walked++
	}
	return walked
}

// sparseScratch allocates the workspace of the sparse solves on first use.
func (b *basisLU) sparseScratch() {
	if b.stamp == nil {
		m := len(b.all)
		b.stamp = make([]int64, m)
		b.setA = make([]int, 0, m)
		b.setB = make([]int, 0, m)
	}
}

// mark starts a new membership epoch and marks the positions of list.
func (b *basisLU) mark(list []int) int64 {
	b.epoch++
	for _, i := range list {
		b.stamp[i] = b.epoch
	}
	return b.epoch
}

// visit returns the ascending positions a triangular solve over the graph
// (ptr, adj) — position j feeds adj[ptr[j]:ptr[j+1]] — must visit when the
// right-hand side is nonzero only at seeds: the symbolic reach of seeds,
// sorted into out. It returns all, the dense pass, when seeds already covers
// every position or the reach outgrows the density cut.
//
//jcr:hotpath
func (b *basisLU) visit(ptr, adj, seeds, out []int) []int {
	if len(seeds) == len(b.all) || len(seeds) > b.cut {
		return b.all
	}
	ep := b.mark(nil)
	out = out[:len(b.all)]
	n := 0
	for _, s := range seeds {
		if b.stamp[s] != ep {
			b.stamp[s] = ep
			out[n] = s
			n++
		}
	}
	for q := 0; q < n; q++ {
		j := out[q]
		for p := ptr[j]; p < ptr[j+1]; p++ {
			if i := adj[p]; b.stamp[i] != ep {
				if n == b.cut {
					return b.all
				}
				b.stamp[i] = ep
				out[n] = i
				n++
			}
		}
	}
	out = out[:n]
	slices.Sort(out)
	return out
}

// ftran solves B v = b in place: on entry v holds b indexed by constraint
// row, on exit the solution indexed by basis position, with its pattern.
// The LU solves run first (L ascending, U descending, in pivot order), then
// the eta file oldest first; an eta whose pivot entry is exactly zero is a
// no-op (its scatter would subtract exact zeros) and is skipped.
//
//jcr:hotpath
func (b *basisLU) ftran(v *hvec) {
	lu, tmp := b.lu, b.tmp
	seeds := b.all
	if v.dense {
		for i, k := range lu.pinv {
			tmp[k] = v.x[i]
		}
	} else {
		b.sparseScratch()
		seeds = v.nz // rewritten in place to pivot positions; setPattern rebuilds v.nz
		for t, i := range v.nz {
			k := lu.pinv[i]
			tmp[k] = v.x[i]
			v.x[i] = 0
			seeds[t] = k
		}
	}
	lset := b.visit(lu.lcp, lu.li, seeds, b.setA)
	for _, j := range lset { // L solve (unit diagonal)
		if xj := tmp[j]; xj != 0 {
			for p := lu.lcp[j]; p < lu.lcp[j+1]; p++ {
				tmp[lu.li[p]] -= lu.lx[p] * xj
			}
		}
	}
	uset := b.visit(lu.ucp, lu.ui, lset, b.setB)
	for t := len(uset) - 1; t >= 0; t-- { // U solve (zero rows skip the division too)
		j := uset[t]
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
	for _, k := range uset {
		v.x[k] = tmp[k]
		tmp[k] = 0
	}
	v.setPattern(uset, len(b.all))
	ep := b.mark(v.nz)
	grown := false
	for t := range b.etas {
		e := &b.etas[t]
		xr := v.x[e.r]
		if xr == 0 {
			continue
		}
		xr /= e.dr
		for p := e.from; p < e.to; p++ {
			i := b.etaIdx[p]
			v.x[i] -= b.etaVal[p] * xr
			if !v.dense && b.stamp[i] != ep {
				b.stamp[i] = ep
				//jcrlint:allow hot-alloc: v.nz has capacity m and holds each position at most once, so this append never grows the backing array
				v.nz = append(v.nz, i)
				grown = true
			}
		}
		v.x[e.r] = xr
	}
	if grown {
		slices.Sort(v.nz)
	}
}

// btran solves B' y = c in place: on entry v holds c indexed by basis
// position, on exit y indexed by constraint row, with its pattern. The eta
// transposes run newest first, then the LU: both triangular solves run in
// scatter form over the row-major mirrors (U' ascending, L' descending), so
// an entry that is exactly zero costs one compare and no memory traffic.
// On a sparse v an eta transpose whose result is an exact zero at an
// unlisted position is not written, leaving +0 where the dense loop would
// store a signed zero; every nonzero comes out bit-for-bit the same.
//
//jcr:hotpath
func (b *basisLU) btran(v *hvec) {
	// On a sparse v only an eta whose transpose reads a listed position
	// can change it; activate walks the position chains to flag those,
	// and each position a transpose adds to the list flags the older ones.
	// Once the walks outgrow an eighth of the gathers they save (fileNNZ:
	// a link is a dependent load, a gather entry a streamed one), every
	// remaining eta is applied instead, as for a dense v.
	if !v.dense {
		b.sparseScratch()
	}
	ep := b.mark(v.nz)
	every := v.dense
	budget := b.fileNNZ / 8
	for _, i := range v.nz {
		if len(b.etas) == 0 {
			break
		}
		if budget -= b.activate(i, len(b.etas)); budget < 0 {
			every = true
			break
		}
	}
	for t := len(b.etas) - 1; t >= 0; t-- {
		if !every && !b.act[t] {
			continue
		}
		b.act[t] = false
		e := &b.etas[t]
		s := v.x[e.r]
		for p := e.from; p < e.to; p++ {
			s -= b.etaVal[p] * v.x[b.etaIdx[p]]
		}
		if !v.dense && b.stamp[e.r] != ep {
			if s == 0 {
				continue
			}
			b.stamp[e.r] = ep
			//jcrlint:allow hot-alloc: v.nz has capacity m and holds each position at most once, so this append never grows the backing array
			v.nz = append(v.nz, e.r)
			if !every {
				if budget -= b.activate(e.r, t); budget < 0 {
					every = true
				}
			}
		}
		v.x[e.r] = s / e.dr
	}
	lu, tmp := b.lu, b.tmp
	seeds := b.all
	if v.dense {
		copy(tmp, v.x)
	} else {
		seeds = v.nz
		for _, k := range seeds {
			tmp[k] = v.x[k]
			v.x[k] = 0
		}
	}
	uset := b.visit(lu.urp, lu.urc, seeds, b.setA)
	for _, j := range uset { // U' solve, forward scatter (row j feeds k > j)
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
	lset := b.visit(lu.lrp, lu.lrc, uset, b.setB)
	for t := len(lset) - 1; t >= 0; t-- { // L' solve, backward scatter (row j feeds k < j)
		j := lset[t]
		xj := tmp[j]
		if xj == 0 {
			continue
		}
		for p := lu.lrp[j]; p < lu.lrp[j+1]; p++ {
			tmp[lu.lrc[p]] -= lu.lrx[p] * xj
		}
	}
	if len(lset) == len(b.all) {
		for i, k := range lu.pinv {
			v.x[i] = tmp[k]
		}
		clear(tmp)
		v.setPattern(b.all, len(b.all))
		return
	}
	v.nz = v.nz[:len(lset)]
	for t, k := range lset {
		i := lu.perm[k]
		v.x[i] = tmp[k]
		tmp[k] = 0
		v.nz[t] = i
	}
	slices.Sort(v.nz)
}
