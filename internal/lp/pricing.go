package lp

// priceBlock is the column count of one pricing block.
const priceBlock = 32

// Pricing status of a column (pricing.status).
const (
	atLower uint8 = iota // nonbasic at its lower bound: enters increasing
	atUpper              // nonbasic at its upper bound: enters decreasing
	barred               // basic, frozen, or fixed (ub 0): cannot enter
)

// pricing is the maintained state behind chooseEntering's devex pricing.
// status packs, per column, what devexScore needs besides z and w. The
// columns are cut into blocks of priceBlock, each caching its best
// candidate — the largest devex score, the lowest index on ties — and that
// score. A column whose z, w or status moved is rescored on the spot
// (rescore): it takes over its block when it beats the cached best, and
// only a best candidate whose score fell marks its block stale, to be
// rescanned by the next query that covers it. A pivot then pays for the
// columns its exchange or bound flip touched plus one compare per block of
// the section, instead of rescanning the whole section.
type pricing struct {
	status     []uint8
	blockBest  []int32 // -1 when the block has no candidate; valid unless stale
	blockScore []float64
	blockStale []bool
}

func newPricing(n int) pricing {
	nb := (n + priceBlock - 1) / priceBlock
	p := pricing{
		status:     make([]uint8, n),
		blockBest:  make([]int32, nb),
		blockScore: make([]float64, nb),
		blockStale: make([]bool, nb),
	}
	p.invalidate()
	return p
}

// invalidate marks every block stale, after z or w changed wholesale.
func (p *pricing) invalidate() {
	for b := range p.blockStale {
		p.blockStale[b] = true
	}
}

// statusOf derives column j's pricing status from the basis, bound and
// freeze state.
func (r *revised) statusOf(j int) uint8 {
	switch {
	case r.inRow[j] >= 0 || r.frozen[j] || r.f.ub[j] == 0:
		return barred
	case r.atUp[j]:
		return atUpper
	default:
		return atLower
	}
}

// setStatus refreshes column j's pricing status and rescores it.
func (r *revised) setStatus(j int) {
	r.price.status[j] = r.statusOf(j)
	r.rescore(j)
}

// rescore refreshes column j's block after j's z, w or status moved, with
// the scan's rules: the largest positive score wins, the lowest index on
// ties, and a NaN score never wins.
func (r *revised) rescore(j int) {
	p := &r.price
	b := j / priceBlock
	if p.blockStale[b] {
		return
	}
	sc, best := r.devexScore(j), p.blockBest[b]
	switch {
	case int32(j) == best:
		if sc >= p.blockScore[b] {
			p.blockScore[b] = sc // still the block's maximum
		} else {
			p.blockStale[b] = true // another column may lead now
		}
	case sc > p.blockScore[b] || (sc > 0 && sc >= p.blockScore[b] && int32(j) < best):
		p.blockBest[b], p.blockScore[b] = int32(j), sc
	}
}

// improvement is the rate s at which moving column j off its bound
// improves the objective, or 0 when j cannot enter.
func (r *revised) improvement(j int) float64 {
	switch r.price.status[j] {
	case atLower:
		return -r.z[j] // increasing x_j improves if z_j < 0
	case atUpper:
		return r.z[j] // decreasing x_j improves if z_j > 0
	}
	return 0
}

// devexScore is column j's devex pricing score: s^2/w_j when s > costTol,
// else 0 (not a candidate).
func (r *revised) devexScore(j int) float64 {
	if s := r.improvement(j); s > costTol {
		return s * s / r.w[j]
	}
	return 0
}

// scan returns the best candidate among columns [lo, hi) and its score:
// the first column of largest positive score, or -1. Devex weights are at
// least 1, so a column with s^2 <= bestScore cannot win and skips the
// division.
//
//jcr:hotpath
func (r *revised) scan(lo, hi int) (int32, float64) {
	best, bestScore := int32(-1), 0.0
	for j := lo; j < hi; j++ {
		s := r.improvement(j)
		if !(s > costTol) {
			continue
		}
		if ss := s * s; ss > bestScore {
			if sc := ss / r.w[j]; sc > bestScore {
				best, bestScore = int32(j), sc
			}
		}
	}
	return best, bestScore
}

// bestIn returns the best candidate among columns [lo, hi) and its score,
// rescanning the stale blocks the range covers whole; a partly covered
// block is scanned directly.
//
//jcr:hotpath
func (r *revised) bestIn(lo, hi int) (int32, float64) {
	p := &r.price
	best, bestScore := int32(-1), 0.0
	for lo < hi {
		b := lo / priceBlock
		from := b * priceBlock
		to := min(from+priceBlock, r.f.n)
		end := min(to, hi)
		var cand int32
		var sc float64
		if lo == from && end == to {
			if p.blockStale[b] {
				p.blockBest[b], p.blockScore[b] = r.scan(from, to)
				p.blockStale[b] = false
			}
			cand, sc = p.blockBest[b], p.blockScore[b]
		} else {
			cand, sc = r.scan(lo, end)
		}
		if cand >= 0 && sc > bestScore {
			best, bestScore = cand, sc
		}
		lo = end
	}
	return best, bestScore
}

// bestCyclic returns the best candidate among the l columns from lo in
// cyclic order: a range running past the last column wraps to column 0, and
// its columns from lo win ties against the wrapped ones.
func (r *revised) bestCyclic(lo, l int) int32 {
	n := r.f.n
	if lo+l <= n {
		best, _ := r.bestIn(lo, lo+l)
		return best
	}
	best, bestScore := r.bestIn(lo, n)
	if wrapped, sc := r.bestIn(0, lo+l-n); sc > bestScore {
		best = wrapped
	}
	return best
}
