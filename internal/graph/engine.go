package graph

import (
	"math"
	"math/bits"

	"jcr/internal/par"
)

// Engine caches canonical shortest-path trees across the family of graphs
// that fault injection derives from one base topology. The fault injector
// rebuilds a degraded graph every faulty hour — removed links shift arc
// IDs and the rebuilt *Graph never compares equal by pointer — so the
// engine normalizes each graph it sees against a "home" topology: the
// degraded graph's arcs are matched, in order, against the home arcs on
// exact (From, To, Cost), which expresses the hour's graph as home plus a
// bitmask of disabled arcs and an arc-ID translation. Trees are then
// cached per source in home arc space, keyed by the disabled mask, and a
// tree cached under one mask is incrementally repaired
// (Ramalingam–Reps-style) when asked for under a nearby mask instead of
// being recomputed.
//
// Determinism is absolute, not statistical: every path through the engine
// — cold kernel, exact cache hit, incremental repair — produces the
// canonical tree of the current graph (see dijkstraCSRPlain), bit for bit
// equal to TreeOf on the same graph. Oversized deltas merely fall back to
// the cold kernel, mirroring the warm/cold LP discipline of DESIGN.md
// §3.9: caching changes how much work a tree costs, never which tree comes
// back.
//
// A graph with arcs the home universe lacks — a recovered link after a
// faulty hour, a re-priced arc from a degrade event — does not discard the
// cache: the home universe is merged into a supersequence of itself and the
// new graph, cached trees are translated through the (monotone) index map
// with the unseen arcs recorded as disabled, and the ordinary mask repair
// brings them up to date. Only a node-count change or runaway universe
// growth forces a true re-home, dropping all cached trees. An Engine is not
// safe for concurrent use — thread one per worker — and a nil *Engine is
// valid, computing everything cold, so call sites take an optional handle
// without branching.
type Engine struct {
	home    *Graph // graph the universe was last rebuilt from; nil after a merge
	homeGen uint64
	c       *csr  // home CSR snapshot; synthetic (gen 0) after a merge
	arcs    []Arc // home arc universe: match target and From/To lookups

	att   attachState // most recent attach, cached by (graph, gen)
	idAtt attachState // identity attach of the home graph itself

	trees map[NodeID]*engTree

	stats EngineStats
}

// attachState expresses one concrete *Graph as home minus a set of
// disabled arcs. The greedy in-order match makes homeToCur monotone over
// matched arcs, so ascending home arc IDs map to ascending current arc
// IDs and the canonical tie-break is preserved under translation.
type attachState struct {
	g           *Graph
	gen         uint64
	mask        []uint64 // disabled home arcs, immutable once built
	maskH       uint64
	homeToCur   []int32 // home arc -> current arc ID, -1 disabled; nil for identity
	anyDisabled bool
}

// engTree is one cached tree in home arc space, valid for exactly the
// disabled mask it was last computed or repaired under.
type engTree struct {
	src    NodeID
	mask   []uint64
	maskH  uint64
	dist   []float64
	parent []int32 // home arc IDs, -1 for the source and unreachable nodes
}

// EngineStats counts cache outcomes since the engine was created.
type EngineStats struct {
	Hits    uint64 // exact (source, mask) tree reuses
	Repairs uint64 // incremental repairs of a cached tree onto a new mask
	Cold    uint64 // full kernel runs (first use, oversized delta)
	Merges  uint64 // universe extensions that translated and kept every tree
	Rehomes uint64 // universe rebuilds that dropped every cached tree
}

// NewEngine returns an empty engine; the first graph it sees becomes home.
func NewEngine() *Engine { return &Engine{} }

// Stats returns the cache counters. Nil-safe.
func (e *Engine) Stats() EngineStats {
	if e == nil {
		return EngineStats{}
	}
	return e.stats
}

// repairMaxDelta is the mask delta (arcs flipped either way) beyond which
// repair is assumed not to beat a cold kernel run: a fixed 64 arcs, whatever
// the universe size. The detached-region size check inside repair is the
// real guard against a delta that detaches half the tree. Purely a
// performance threshold: both paths return the identical canonical tree.
const repairMaxDelta = 64

// Tree returns the canonical shortest-path tree of g from src, identical
// bit for bit to TreeOf(g, src), serving it from cache when the engine has
// seen this graph's fault mask before and repairing a cached neighbor mask
// when it has not. Nil-safe: a nil engine computes cold.
func (e *Engine) Tree(g *Graph, src NodeID) ShortestTree {
	if e == nil {
		return TreeOf(g, src)
	}
	e.attach(g)
	return e.materializeTree(e.ensure(src))
}

// Reach reports which nodes any of the given roots can reach in g, by
// union of the engine's cached trees (warming them as needed). Distances
// are tie-independent, so the result equals a structural search exactly.
// Nil-safe, falling back to one-shot trees.
func (e *Engine) Reach(g *Graph, roots []NodeID) []bool {
	if e == nil {
		reach := make([]bool, g.NumNodes())
		for _, r := range roots {
			for v, d := range TreeOf(g, r).Dist {
				if !math.IsInf(d, 1) {
					reach[v] = true
				}
			}
		}
		return reach
	}
	e.attach(g)
	reach := make([]bool, e.c.n)
	for _, r := range roots {
		t := e.ensure(r)
		for v, d := range t.dist {
			if !math.IsInf(d, 1) {
				reach[v] = true
			}
		}
	}
	return reach
}

// AllPairs returns the pairwise least-cost matrix of g, identical to
// graph.AllPairs, reusing every cached tree whose mask matches and
// computing the missing sources over the par worker pool. Workers touch
// only their own tree and pooled scratch; the tree map is updated
// sequentially afterwards. Nil-safe.
func (e *Engine) AllPairs(g *Graph) [][]float64 {
	if e == nil {
		return AllPairs(g)
	}
	e.attach(g)
	n := e.c.n
	rows := make([][]float64, n)
	var work []NodeID
	for v := 0; v < n; v++ {
		if t := e.trees[v]; t != nil && t.maskH == e.att.maskH && maskEqual(t.mask, e.att.mask) {
			e.stats.Hits++
			rows[v] = append([]float64(nil), t.dist...)
		} else {
			work = append(work, v)
		}
	}
	if len(work) == 0 {
		return rows
	}
	fresh := make([]*engTree, len(work))
	repaired := make([]bool, len(work))
	if err := par.Do(nil, 0, len(work), func(i int) error {
		v := work[i]
		t := e.trees[v]
		if t == nil {
			t = &engTree{src: v}
			e.coldCompute(t)
		} else if e.repair(t) {
			repaired[i] = true
		} else {
			e.coldCompute(t)
		}
		fresh[i] = t
		rows[v] = append([]float64(nil), t.dist...)
		return nil
	}); err != nil {
		//jcrlint:allow lib-panic: programmer-error guard; no context is threaded and the per-source closures cannot fail
		panic(err)
	}
	for i, t := range fresh {
		e.trees[work[i]] = t
		if repaired[i] {
			e.stats.Repairs++
		} else {
			e.stats.Cold++
		}
	}
	return rows
}

// attach normalizes g against the home universe: an in-order sub-sequence
// match when possible, a universe merge when g has arcs home lacks, a full
// re-home only as the last resort.
func (e *Engine) attach(g *Graph) {
	if e.arcs == nil {
		e.rehome(g)
		return
	}
	if e.att.g == g && e.att.gen == g.gen {
		return
	}
	if e.home != nil && g == e.home && g.gen == e.homeGen {
		e.att = e.idAtt
		return
	}
	if e.match(g) || e.merge(g) {
		return
	}
	e.rehome(g)
}

func (e *Engine) rehome(g *Graph) {
	e.home = g
	e.homeGen = g.gen
	e.c = g.view()
	e.arcs = append(e.arcs[:0], g.arcs...)
	zero := make([]uint64, (len(e.arcs)+63)/64)
	e.idAtt = attachState{g: g, gen: g.gen, mask: zero, maskH: maskHash(zero)}
	e.att = e.idAtt
	e.trees = make(map[NodeID]*engTree, e.c.n)
	e.stats.Rehomes++
}

// match tries to express g as an ordered sub-sequence of the home arcs,
// comparing (From, To, Cost) exactly. The fault injector rebuilds degraded
// graphs by walking the intact link list in order and copying the original
// per-direction costs verbatim, so every faults-derived graph matches;
// anything else (extra arcs, rerouted or re-priced arcs, different node
// count) fails and triggers a re-home.
func (e *Engine) match(g *Graph) bool {
	if g.NumNodes() != e.c.n || g.NumArcs() > len(e.arcs) {
		return false
	}
	m := len(e.arcs)
	mask := make([]uint64, (m+63)/64)
	h2c := make([]int32, m)
	j := 0
	for i := range g.arcs {
		for j < m && !arcMatches(e.arcs[j], g.arcs[i]) {
			maskSetBit(mask, j)
			h2c[j] = -1
			j++
		}
		if j == m {
			return false
		}
		h2c[j] = int32(i)
		j++
	}
	for ; j < m; j++ {
		maskSetBit(mask, j)
		h2c[j] = -1
	}
	e.att = attachState{
		g: g, gen: g.gen,
		mask: mask, maskH: maskHash(mask),
		homeToCur:   h2c,
		anyDisabled: g.NumArcs() < m,
	}
	return true
}

// merge extends the home universe to a supersequence of itself and g, for
// graphs match cannot express as home minus disabled arcs. This is the case
// that makes cross-hour reuse work under real fault traces: hour h+1's live
// links are a subset of the BASE topology but not of hour h's (links recover
// as well as fail), and a degrade event re-prices an arc, which to the
// matcher is a new arc. Rather than dropping every cached tree, merge
// aligns g's arcs against the home list with the same greedy in-order scan
// match uses, splices the unmatched arcs in at their aligned positions, and
// translates the cached state:
//
//   - the old-to-new index map is strictly increasing, so relative arc
//     order — and with it the canonical (dist, tail, arc ID) tie-break —
//     is preserved for every arc the trees already reference;
//   - each cached tree's mask marks the spliced-in arcs disabled, which is
//     exactly what "computed in a universe without them" means, so the
//     ordinary mask-delta repair re-enables them with the canonical tie
//     rule and no special cases.
//
// The merged universe is synthetic (no backing *Graph); its CSR is built
// straight from the arc list. Repeated merges only grow the universe toward
// the union of everything seen — bounded by the base topology in the fault
// workloads — but a pathological alignment could balloon it, so growth past
// 4x the attaching graph falls back to a full re-home.
func (e *Engine) merge(g *Graph) bool {
	if g.NumNodes() != e.c.n {
		return false
	}
	old, cur := e.arcs, g.arcs
	// Pass 1: align. curOld[j] is the matched home index of cur arc j, or
	// -1 with an insertion recorded before home position ins[k].at.
	type insertion struct{ at, j int }
	var ins []insertion
	curOld := make([]int32, len(cur))
	i := 0
	for j := range cur {
		k := i
		for k < len(old) && !arcMatches(old[k], cur[j]) {
			k++
		}
		if k < len(old) {
			curOld[j] = int32(k)
			i = k + 1
		} else {
			curOld[j] = -1
			ins = append(ins, insertion{at: i, j: j})
		}
	}
	m := len(old) + len(ins)
	if m > 4*len(cur)+64 {
		return false
	}
	// Pass 2: splice. oldToNew is strictly increasing; curNew records where
	// each inserted cur arc landed.
	newArcs := make([]Arc, 0, m)
	oldToNew := make([]int32, len(old))
	curNew := make([]int32, len(cur))
	next := 0
	for oi := 0; oi <= len(old); oi++ {
		for next < len(ins) && ins[next].at == oi {
			curNew[ins[next].j] = int32(len(newArcs))
			newArcs = append(newArcs, cur[ins[next].j])
			next++
		}
		if oi < len(old) {
			oldToNew[oi] = int32(len(newArcs))
			newArcs = append(newArcs, old[oi])
		}
	}
	// Attach state of g in the merged universe.
	words := (m + 63) / 64
	mask := make([]uint64, words)
	h2c := make([]int32, m)
	for idx := range h2c {
		h2c[idx] = -1
	}
	for j := range cur {
		if oi := curOld[j]; oi >= 0 {
			h2c[oldToNew[oi]] = int32(j)
		} else {
			h2c[curNew[j]] = int32(j)
		}
	}
	for idx, c := range h2c {
		if c < 0 {
			maskSetBit(mask, idx)
		}
	}
	// Translate cached trees: parent arcs through the monotone map, masks
	// likewise, with every spliced-in arc disabled.
	insMask := make([]uint64, words)
	for _, in := range ins {
		maskSetBit(insMask, int(curNew[in.j]))
	}
	for _, t := range e.trees {
		for v := range t.parent {
			if p := t.parent[v]; p >= 0 {
				t.parent[v] = oldToNew[p]
			}
		}
		nm := make([]uint64, words)
		copy(nm, insMask)
		for oi := range old {
			if maskBit(t.mask, int32(oi)) {
				maskSetBit(nm, int(oldToNew[oi]))
			}
		}
		t.mask = nm
		t.maskH = maskHash(nm)
	}
	e.home = nil
	e.homeGen = 0
	e.idAtt = attachState{}
	e.arcs = newArcs
	e.c = buildCSRFromArcs(e.c.n, newArcs)
	e.att = attachState{
		g: g, gen: g.gen,
		mask: mask, maskH: maskHash(mask),
		homeToCur:   h2c,
		anyDisabled: len(cur) < m,
	}
	e.stats.Merges++
	return true
}

// arcMatches is the arc identity test of the greedy matcher. Costs compare
// exactly: the degraded graph copies the original per-direction costs bit
// for bit, so exact equality is the correct test; capacities are ignored
// because distances do not depend on them (a capacity-only degradation
// keeps every cached tree valid).
func arcMatches(home, cur Arc) bool {
	//jcrlint:allow float-eq: exact identity of copied costs, not a tolerance check
	return home.From == cur.From && home.To == cur.To && home.Cost == cur.Cost
}

// ensure returns the cached tree for src under the attached mask,
// cold-computing, exactly reusing, or repairing as the mask dictates.
func (e *Engine) ensure(src NodeID) *engTree {
	t := e.trees[src]
	if t == nil {
		t = &engTree{src: src}
		e.coldCompute(t)
		e.trees[src] = t
		e.stats.Cold++
		return t
	}
	if t.maskH == e.att.maskH && maskEqual(t.mask, e.att.mask) {
		e.stats.Hits++
		return t
	}
	if e.repair(t) {
		e.stats.Repairs++
	} else {
		e.coldCompute(t)
		e.stats.Cold++
	}
	return t
}

// coldCompute runs the full canonical kernel for t.src under the attached
// mask, in home arc space.
func (e *Engine) coldCompute(t *engTree) {
	c := e.c
	s := acquireScratch(c.n)
	if e.att.anyDisabled {
		dijkstraCSRMask(c, t.src, -1, s, e.att.mask)
	} else {
		dijkstraCSRPlain(c, t.src, s)
	}
	if t.dist == nil {
		t.dist = make([]float64, c.n)
		t.parent = make([]int32, c.n)
	}
	for v := 0; v < c.n; v++ {
		if s.marked(int32(v)) {
			t.dist[v] = s.dist[v]
			t.parent[v] = s.parent[v]
		} else {
			t.dist[v] = posInf
			t.parent[v] = -1
		}
	}
	releaseScratch(s)
	t.mask = e.att.mask
	t.maskH = e.att.maskH
}

// repair transforms t from its cached mask to the attached mask in place,
// reporting false (with t untouched) when the delta is too large to be
// worth it. Two halves, in order:
//
//   - arcs newly disabled: only disabled TREE arcs matter (a non-tree arc
//     never attains a node's distance with a smaller canonical key than
//     the incumbent parent, or it would have been the parent). The tree
//     descendants of their heads form the detached region D; every node
//     outside D keeps both its distance and its canonical parent. D is
//     reset and re-grown by a Dijkstra restricted to D, seeded with every
//     still-enabled in-arc offer from outside D.
//   - arcs newly re-enabled: their offers are relaxed and propagated
//     globally.
//
// Both halves relax through relaxRepair, whose exact-tie rule re-derives
// the canonical parent even though offers arrive out of the kernel's
// settle order; see DESIGN.md §3.10 for the argument.
func (e *Engine) repair(t *engTree) bool {
	newMask := e.att.mask
	var downTree, up []int32
	changed := 0
	for w := range newMask {
		diff := t.mask[w] ^ newMask[w]
		for diff != 0 {
			b := bits.TrailingZeros64(diff)
			diff &^= 1 << uint(b)
			changed++
			if changed > repairMaxDelta {
				return false
			}
			id := int32(w<<6 | b)
			if maskBit(newMask, id) {
				if head := e.arcs[id].To; t.parent[head] == id {
					downTree = append(downTree, id)
				}
			} else {
				up = append(up, id)
			}
		}
	}
	c := e.c
	n := c.n
	s := acquireScratch(n)
	defer releaseScratch(s)

	// The detached region is re-grown against the INTERMEDIATE mask —
	// removals applied, re-enabled arcs still masked — never against
	// newMask directly. Growing against newMask would let detached nodes
	// absorb a re-enabled arc's improvement during the regrow and reach
	// their final distance early; the decrease half then sees an exact tie
	// at its seed, never queues them, and the improvement fails to
	// propagate outside the region. With the intermediate mask each half
	// is exact for a well-defined mask and their composition is exact.
	downMask := newMask
	if len(downTree) > 0 && len(up) > 0 {
		downMask = append([]uint64(nil), newMask...)
		for _, id := range up {
			maskSetBit(downMask, int(id))
		}
	}

	if len(downTree) > 0 {
		// Child lists from the parent array, then the detached region D.
		firstKid := make([]int32, n)
		nextKid := make([]int32, n)
		for v := range firstKid {
			firstKid[v] = -1
		}
		for v := 0; v < n; v++ {
			if p := t.parent[v]; p >= 0 {
				u := int32(e.arcs[p].From)
				nextKid[v] = firstKid[u]
				firstKid[u] = int32(v)
			}
		}
		var dNodes, stack []int32
		for _, id := range downTree {
			if h := int32(e.arcs[id].To); !s.marked(h) {
				s.mark(h)
				stack = append(stack, h)
			}
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			dNodes = append(dNodes, v)
			for k := firstKid[v]; k >= 0; k = nextKid[k] {
				if !s.marked(k) {
					s.mark(k)
					stack = append(stack, k)
				}
			}
		}
		if len(dNodes) > n/2 {
			// Most of the tree detached: recompute instead. Nothing has
			// been mutated yet.
			return false
		}
		for _, d := range dNodes {
			t.dist[d] = posInf
			t.parent[d] = -1
		}
		// Seed every node of D with its best still-enabled offer from the
		// settled region, then run Dijkstra restricted to D.
		for _, d := range dNodes {
			for j := c.revHead[d]; j < c.revHead[d+1]; j++ {
				id := c.revArc[j]
				if maskBit(downMask, id) {
					continue
				}
				u := c.revFrom[j]
				if s.marked(u) {
					continue // offers within D propagate below
				}
				if du := t.dist[u]; !math.IsInf(du, 1) {
					e.relaxRepair(t, s, u, id, d, du+c.revCost[j])
				}
			}
		}
		for len(s.heap) > 0 {
			v := s.heapPop(t.dist)
			dv := t.dist[v]
			for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
				id := c.fwdArc[j]
				if maskBit(downMask, id) {
					continue
				}
				w := c.fwdTo[j]
				if !s.marked(w) {
					continue // outside D: distance and parent are provably unaffected
				}
				e.relaxRepair(t, s, v, id, w, dv+c.fwdCost[j])
			}
		}
	}

	if len(up) > 0 {
		// Fresh epoch: the decrease half tracks heap membership globally,
		// not membership of D.
		s.reset(n)
		for _, id := range up {
			u := int32(e.arcs[id].From)
			if du := t.dist[u]; !math.IsInf(du, 1) {
				e.relaxRepair(t, s, u, id, int32(e.arcs[id].To), du+e.arcs[id].Cost)
			}
		}
		for len(s.heap) > 0 {
			v := s.heapPop(t.dist)
			dv := t.dist[v]
			for j := c.fwdHead[v]; j < c.fwdHead[v+1]; j++ {
				id := c.fwdArc[j]
				if maskBit(newMask, id) {
					continue
				}
				e.relaxRepair(t, s, v, id, c.fwdTo[j], dv+c.fwdCost[j])
			}
		}
	}

	t.mask = newMask
	t.maskH = e.att.maskH
	return true
}

// relaxRepair applies one arc offer u -(id)-> w at distance off under the
// canonical parent rule: a strict improvement replaces distance and parent
// and (re)queues w; an exact tie replaces the parent alone when the
// offering arc's canonical key (dist[u], u, id) is smaller than the
// incumbent's. The cold kernel needs no tie rule because its offers arrive
// in ascending key order; repair offers do not (boundary seeds and
// re-enabled arcs arrive in scan order), so the rule restores the
// kernel's choice explicitly.
func (e *Engine) relaxRepair(t *engTree, s *scratch, u, id, w int32, off float64) {
	if off < t.dist[w] {
		t.dist[w] = off
		t.parent[w] = id
		s.mark(w)
		s.heapFix(t.dist, w)
		return
	}
	//jcrlint:allow float-eq: exact tie detection between identically computed path sums
	if off != t.dist[w] {
		return
	}
	cur := t.parent[w]
	if cur < 0 {
		return // w is the source: it never takes a parent
	}
	x := int32(e.arcs[cur].From)
	du, dx := t.dist[u], t.dist[x]
	//jcrlint:allow float-eq: canonical key comparison on identically computed distances
	if du != dx {
		if du < dx {
			t.parent[w] = id
		}
		return
	}
	if u != x {
		if u < x {
			t.parent[w] = id
		}
		return
	}
	if id < cur {
		t.parent[w] = id
	}
}

// materializeTree translates a home-space tree into the attached graph's
// arc IDs. Parent arcs are always enabled, so the translation is total.
func (e *Engine) materializeTree(t *engTree) ShortestTree {
	n := len(t.dist)
	dist := make([]float64, n)
	copy(dist, t.dist)
	parent := make([]ArcID, n)
	h2c := e.att.homeToCur
	for v := 0; v < n; v++ {
		if p := t.parent[v]; p < 0 {
			parent[v] = -1
		} else if h2c == nil {
			parent[v] = ArcID(p)
		} else {
			parent[v] = ArcID(h2c[p])
		}
	}
	return ShortestTree{Source: t.src, Dist: dist, ParentArc: parent}
}

func maskBit(mask []uint64, id int32) bool {
	return mask[id>>6]&(1<<(uint(id)&63)) != 0
}

func maskSetBit(mask []uint64, id int) {
	mask[id>>6] |= 1 << (uint(id) & 63)
}

func maskEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// maskHash is FNV-1a over the mask words: a cheap inequality filter ahead
// of the exact maskEqual check (hash collisions cost a comparison, never
// correctness).
func maskHash(mask []uint64) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	var h uint64 = fnvOffset
	for _, w := range mask {
		h = (h ^ w) * fnvPrime
	}
	return h
}
