package routing

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jcr/internal/core/lputil"
	"jcr/internal/flow"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/par"
	"jcr/internal/placement"
)

// This file is the partition-aware solve path (DESIGN.md §10): instead of
// one multicommodity LP over the whole network, the base graph is cut into
// cells (topo.Partition / graph.CellSet) and each cell solves its own small
// LP, with the cells coordinated through Lagrangian prices on the gateway
// arcs. Per cell and item, the program keeps one flow variable per internal
// arc, an export copy x_e of every gateway arc leaving the cell, an import
// copy y_e of every gateway arc entering it, and a supply variable per
// replica inside the cell; the relaxed couplings are the gateway consensus
// x_e = y_e (price mu[k][e]) and the per-item supply split
// sum_cells sum_replicas v = total_k (price lambda[k]). Every price update
// is an objective-coefficient-only mutation of the retained cell skeletons,
// so each iteration re-solves warm through the per-cell lp.Solver handles;
// the cells of one iteration solve in parallel under par.Do and merge by
// cell index, keeping any worker count bit-identical.
//
// The coordinator's subgradient ascent yields a valid lower bound L on the
// monolithic MMSFP optimum for any prices; the feasible routing it returns
// comes from a strict sequential residual recovery (no capacity-oblivious
// escape), optionally guided by the converged supply split. The reported
// interval [LowerBound, PrimalCost] therefore brackets the monolithic
// optimum by construction — the differential suite pins exactly this.

// Numerical and loop constants of the decomposition, named in one place
// (jcrlint tol-literal).
const (
	// defaultPriceIters bounds the price-coordination iterations.
	defaultPriceIters = 48
	// defaultGapTol is the relative duality-gap target that stops the
	// price loop early.
	defaultGapTol = 2e-2
	// consensusEps is the squared subgradient norm below which the cell
	// solutions already agree on every relaxed coupling.
	consensusEps = 1e-18
	// priceStallIters is how many non-improving dual iterations halve the
	// Polyak step scale.
	priceStallIters = 3
	// dualImproveTol is the relative margin for counting a dual iterate as
	// an improvement.
	dualImproveTol = 1e-9
	// guidedSlackRel and guidedSlackAbs pad the supply-split caps of the
	// guided primal recovery, absorbing LP-solution float residue.
	guidedSlackRel = 5e-2
	// guidedSlackAbs is the absolute part of the guided-recovery padding.
	guidedSlackAbs = 1e-6
)

// DecomposeOptions configure the partition-aware solve path. The zero
// Assign is invalid; everything else zero means the default.
type DecomposeOptions struct {
	// Assign maps every base-graph node to its cell (topo.Partition's
	// output, or a composite network's block assignment). Required.
	Assign []int
	// MaxIters bounds the price-coordination iterations; zero means
	// defaultPriceIters.
	MaxIters int
	// GapTol is the relative duality-gap target that stops the price loop;
	// zero means defaultGapTol.
	GapTol float64
	// MinVars is the (item, arc) variable count below which the routing
	// layer keeps the monolithic LP instead (it fits comfortably); zero
	// means the LP path's own defaultLPMaxVars.
	MinVars int
}

func (d *DecomposeOptions) maxIters() int {
	if d.MaxIters > 0 {
		return d.MaxIters
	}
	return defaultPriceIters
}

func (d *DecomposeOptions) gapTol() float64 {
	if d.GapTol > 0 {
		return d.GapTol
	}
	return defaultGapTol
}

func (d *DecomposeOptions) minVars() int {
	if d.MinVars > 0 {
		return d.MinVars
	}
	return defaultLPMaxVars
}

// DecomposeInfo reports the decomposition's certificate: the Lagrangian
// lower bound on the monolithic MMSFP optimum, the cost of the feasible
// routing actually returned, and their gap. The monolithic optimum lies in
// [LowerBound, PrimalCost] whenever the instance is feasible.
type DecomposeInfo struct {
	// Cells is the number of cells solved.
	Cells int
	// GatewayArcs is the number of priced cross-cell arcs.
	GatewayArcs int
	// Iterations counts price-coordination iterations run.
	Iterations int
	// LowerBound is the best Lagrangian dual value found.
	LowerBound float64
	// PrimalCost is the cost of the returned capacity-feasible routing.
	PrimalCost float64
	// Gap is PrimalCost - LowerBound.
	Gap float64
}

// cellProg is one cell's LP skeleton with its warm-start handle and the
// cell-local/global translation needed to mutate prices and read the
// coupling variables back out.
//
//jcr:celllocal
type cellProg struct {
	view   *graph.CellView
	prob   *lp.Problem
	solver *lp.Solver
	sol    *lp.Solution

	// Column layout: item k's flow variables occupy [k*stride,
	// (k+1)*stride) as [internal | exports | imports], in each class's
	// ascending global-arc order; supply columns follow all flow columns.
	stride, nIn, nEx int
	// exPos/imPos translate a global gateway-arc ID to its position in
	// the cell's export/import class.
	exPos, imPos map[graph.ArcID]int
	// replicas[k] lists item k's replica nodes inside the cell (global,
	// ascending); supplyCol[k] the matching variable columns.
	replicas  [][]graph.NodeID
	supplyCol [][]int
	// consRow[k][local] is the conservation row of (item k, local node),
	// -1 when the node has no incident arcs and no replica (no row).
	consRow [][]int
}

// gwRef locates one gateway arc's export and import copies across the cell
// programs, per item via the programs' stride.
type gwRef struct {
	tailCell, exPos int
	headCell, imPos int
}

// decomposedFlows runs the partition-aware solve: build (or reuse) the
// per-cell skeletons, iterate Lagrangian prices on the gateway couplings
// with warm per-cell resolves, and return a strict capacity-feasible
// routing together with the duality certificate. Any structural problem —
// degenerate partition, an infeasible cell, recovery failure — is returned
// as an error so splittableFlows can fall back to the monolithic path.
func decomposedFlows(ctx context.Context, aux *graph.Auxiliary, active []itemDemand, opts Options) ([][]float64, *DecomposeInfo, error) {
	dec := opts.Decompose
	cs, err := opts.Reuse.cellSet(aux.Base, dec.Assign)
	if err != nil {
		return nil, nil, err
	}
	if cs.K() < 2 {
		return nil, nil, fmt.Errorf("routing: decomposition needs at least 2 cells, have %d", cs.K())
	}
	progs, err := opts.Reuse.cellPrograms(cs, aux, active)
	if err != nil {
		return nil, nil, err
	}
	// Strict feasible routing first: it anchors the Polyak steps and is
	// the result's primal half. Failure here means the greedy recovery
	// cannot certify feasibility, so the caller's fallbacks take over.
	primal, primalCost, err := recoverStrict(ctx, aux, active, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("routing: decomposed primal recovery: %w", err)
	}
	nc := len(active)
	gwArcs := cs.GatewayArcs()
	refs := gatewayRefs(cs, progs)
	mu := make([][]float64, nc)
	for k := range mu {
		mu[k] = make([]float64, len(gwArcs))
	}
	lam := make([]float64, nc)
	info := &DecomposeInfo{Cells: cs.K(), GatewayArcs: len(gwArcs)}
	bestDual := math.Inf(-1)
	theta := 1.0
	stall := 0
	gapTol := dec.gapTol()
	for it := 1; it <= dec.maxIters(); it++ {
		info.Iterations = it
		applyPrices(cs, progs, mu, lam)
		if err := solveCells(ctx, progs, opts.Workers); err != nil {
			if ctx != nil && ctx.Err() != nil {
				return nil, nil, err
			}
			return nil, nil, fmt.Errorf("routing: decomposed cell solve: %w", err)
		}
		dual := 0.0
		for _, pr := range progs {
			dual += pr.sol.Objective
		}
		for k := range active {
			dual -= lam[k] * active[k].total
		}
		if dual > bestDual+dualImproveTol*(1+math.Abs(dual)) {
			bestDual = dual
			stall = 0
		} else {
			stall++
			if stall >= priceStallIters {
				theta /= 2
				stall = 0
			}
		}
		if bestDual < dual {
			bestDual = dual
		}
		if primalCost-bestDual <= gapTol*math.Max(1, math.Abs(primalCost)) {
			break
		}
		// Subgradients of the relaxed couplings.
		gMu := make([][]float64, nc)
		norm2 := 0.0
		for k := range active {
			gMu[k] = make([]float64, len(gwArcs))
			for gi := range gwArcs {
				r := refs[gi]
				x := progs[r.tailCell].flowVal(k, progs[r.tailCell].nIn+r.exPos)
				y := progs[r.headCell].flowVal(k, progs[r.headCell].nIn+progs[r.headCell].nEx+r.imPos)
				gMu[k][gi] = x - y
				norm2 += gMu[k][gi] * gMu[k][gi]
			}
		}
		gLam := make([]float64, nc)
		for k := range active {
			v := 0.0
			for _, pr := range progs {
				for _, col := range pr.supplyCol[k] {
					v += pr.sol.X[col]
				}
			}
			gLam[k] = v - active[k].total
			norm2 += gLam[k] * gLam[k]
		}
		if norm2 <= consensusEps {
			// The cells agree on every coupling: the merged solution is
			// optimal for the monolithic LP and dual equals its value.
			break
		}
		step := theta * (primalCost - dual) / norm2
		if step <= 0 {
			break
		}
		for k := range active {
			for gi := range gwArcs {
				mu[k][gi] += step * gMu[k][gi]
			}
			lam[k] += step * gLam[k]
		}
	}
	// A supply-split-guided recovery can beat the cold greedy one once the
	// prices have located the right regional sources; keep whichever
	// feasible routing is cheaper.
	if caps := supplySplit(progs, active); caps != nil {
		if guided, guidedCost, err := recoverStrict(ctx, aux, active, caps); err == nil && guidedCost < primalCost {
			primal, primalCost = guided, guidedCost
		} else if ctx != nil && ctx.Err() != nil {
			return nil, nil, ctx.Err()
		}
	}
	info.PrimalCost = primalCost
	info.LowerBound = bestDual
	info.Gap = primalCost - bestDual
	return primal, info, nil
}

// flowVal reads item k's flow variable at the given within-item offset.
func (pr *cellProg) flowVal(k, off int) float64 { return pr.sol.X[k*pr.stride+off] }

// gatewayRefs locates every gateway arc's export and import columns.
func gatewayRefs(cs *graph.CellSet, progs []*cellProg) []gwRef {
	assign := cs.Assign()
	refs := make([]gwRef, 0, len(cs.GatewayArcs()))
	for _, id := range cs.GatewayArcs() {
		a := cs.Base().Arc(id)
		tc, hc := assign[a.From], assign[a.To]
		refs = append(refs, gwRef{
			tailCell: tc, exPos: progs[tc].exPos[id],
			headCell: hc, imPos: progs[hc].imPos[id],
		})
	}
	return refs
}

// applyPrices writes the current prices into every cell skeleton's
// objective: exports cost c_e + mu, imports -mu, supplies lambda. Pure
// objective-coefficient mutation — the retained bases stay warm.
func applyPrices(cs *graph.CellSet, progs []*cellProg, mu [][]float64, lam []float64) {
	base := cs.Base()
	for _, pr := range progs {
		for k := range mu {
			for pos, id := range pr.view.ExportArcs() {
				pr.prob.SetObjectiveCoeff(k*pr.stride+pr.nIn+pos, base.Arc(id).Cost+mu[k][cs.GatewayIndex(id)])
			}
			for pos, id := range pr.view.ImportArcs() {
				pr.prob.SetObjectiveCoeff(k*pr.stride+pr.nIn+pr.nEx+pos, -mu[k][cs.GatewayIndex(id)])
			}
			for _, col := range pr.supplyCol[k] {
				pr.prob.SetObjectiveCoeff(col, lam[k])
			}
		}
	}
}

// solveCells solves every cell program, fanned out on the bounded pool;
// prog i is touched only by the worker that claims index i, and each cell
// keeps its own warm solver, so results are identical for any worker count.
func solveCells(ctx context.Context, progs []*cellProg, workers int) error {
	return par.Do(ctx, workers, len(progs), func(c int) error {
		sol, err := lputil.SolveWith(ctx, progs[c].solver, "routing: decomposed cell LP", progs[c].prob)
		if err != nil {
			return fmt.Errorf("cell %d: %w", c, err)
		}
		progs[c].sol = sol
		return nil
	})
}

// supplySplit extracts the converged per-replica supply caps from the cell
// solutions, padded by the guided-recovery slack. Nil when no cell has
// solved yet.
func supplySplit(progs []*cellProg, active []itemDemand) []map[graph.NodeID]float64 {
	for _, pr := range progs {
		if pr.sol == nil {
			return nil
		}
	}
	caps := make([]map[graph.NodeID]float64, len(active))
	for k := range active {
		caps[k] = map[graph.NodeID]float64{}
		for _, pr := range progs {
			for ri, v := range pr.replicas[k] {
				caps[k][v] = pr.sol.X[pr.supplyCol[k][ri]]*(1+guidedSlackRel) + guidedSlackAbs*(1+active[k].total)
			}
		}
	}
	return caps
}

// recoverStrict routes every item sequentially against residual capacities,
// largest demand first, with NO capacity-oblivious escape: a failure is
// returned (and the caller falls back), so a success certifies a
// capacity-feasible routing whose cost upper-bounds the monolithic optimum.
// supplyCaps, when non-nil, additionally caps each item's virtual arcs to
// the decomposition's supply split (the guided pass). On failure the
// reverse order is tried once — the greedy order, not the instance, is
// usually what jams.
func recoverStrict(ctx context.Context, aux *graph.Auxiliary, active []itemDemand, supplyCaps []map[graph.NodeID]float64) ([][]float64, float64, error) {
	order := make([]int, len(active))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return active[order[a]].total > active[order[b]].total })
	flows, cost, err := recoverInOrder(ctx, aux, active, order, supplyCaps)
	if err == nil {
		return flows, cost, nil
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, 0, err
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return recoverInOrder(ctx, aux, active, order, supplyCaps)
}

func recoverInOrder(ctx context.Context, aux *graph.Auxiliary, active []itemDemand, order []int, supplyCaps []map[graph.NodeID]float64) ([][]float64, float64, error) {
	g := aux.G
	residual := make([]float64, g.NumArcs())
	for id := range residual {
		residual[id] = g.Arc(id).Cap
	}
	flows := make([][]float64, len(active))
	var cost float64
	for _, k := range order {
		// Real arcs carry what earlier items left; item k's own virtual
		// arcs carry its supply caps when given.
		vs := aux.VirtualSource[k]
		capOf := func(id graph.ArcID) float64 {
			a := g.Arc(id)
			switch {
			case !aux.IsVirtualArc(id):
				return residual[id]
			case supplyCaps != nil && a.From == vs && aux.VirtualArc[k][a.To] == id:
				return supplyCaps[k][a.To]
			}
			return a.Cap
		}
		f, err := flow.MinCostFlowToSinks(ctx, g, capOf, vs, active[k].sinkDemands())
		if err != nil {
			return nil, 0, fmt.Errorf("item %d: %w", active[k].item, err)
		}
		flows[k] = f
		for id, v := range f {
			if !aux.IsVirtualArc(id) {
				residual[id] -= v
				if residual[id] < 0 {
					residual[id] = 0
				}
				cost += v * g.Arc(id).Cost
			}
		}
	}
	return flows, cost, nil
}

// sortedArcKeys returns a virtual-arc map's replica nodes in ascending
// order, keeping float and graph mutations independent of map iteration.
func sortedArcKeys(m map[graph.NodeID]graph.ArcID) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// buildCellPrograms constructs every cell's LP skeleton from scratch.
//
//jcr:celllocal
func buildCellPrograms(cs *graph.CellSet, aux *graph.Auxiliary, active []itemDemand) ([]*cellProg, error) {
	replicasOf := make([][]graph.NodeID, len(active))
	for k := range active {
		replicasOf[k] = sortedArcKeys(aux.VirtualArc[k])
	}
	progs := make([]*cellProg, cs.K())
	for c := range progs {
		pr, err := buildCellProgram(cs, cs.Cell(c), active, replicasOf)
		if err != nil {
			return nil, fmt.Errorf("routing: cell %d: %w", c, err)
		}
		progs[c] = pr
	}
	return progs, nil
}

//jcr:celllocal
func buildCellProgram(cs *graph.CellSet, cv *graph.CellView, active []itemDemand, replicasOf [][]graph.NodeID) (*cellProg, error) {
	base := cs.Base()
	nc := len(active)
	nIn, nEx, nIm := len(cv.InternalArcs()), len(cv.ExportArcs()), len(cv.ImportArcs())
	stride := nIn + nEx + nIm
	pr := &cellProg{
		view:   cv,
		solver: lp.NewSolver(),
		stride: stride, nIn: nIn, nEx: nEx,
		exPos:     make(map[graph.ArcID]int, nEx),
		imPos:     make(map[graph.ArcID]int, nIm),
		replicas:  make([][]graph.NodeID, nc),
		supplyCol: make([][]int, nc),
		consRow:   make([][]int, nc),
	}
	for pos, id := range cv.ExportArcs() {
		pr.exPos[id] = pos
	}
	for pos, id := range cv.ImportArcs() {
		pr.imPos[id] = pos
	}
	numSupply := 0
	for k := range active {
		for _, v := range replicasOf[k] {
			if _, ok := cv.LocalNode(v); ok {
				pr.replicas[k] = append(pr.replicas[k], v)
				numSupply++
			}
		}
	}
	p := lp.NewProblem(nc*stride + numSupply)
	pr.prob = p
	col := nc * stride
	for k := range active {
		pr.supplyCol[k] = make([]int, len(pr.replicas[k]))
		for ri := range pr.replicas[k] {
			pr.supplyCol[k][ri] = col
			col++
		}
	}
	// Objective (price-free part) and bounds. Prices are layered on by
	// applyPrices before every solve.
	for k := range active {
		hi := active[k].total
		for pos, id := range cv.InternalArcs() {
			j := k*stride + pos
			p.SetObjectiveCoeff(j, base.Arc(id).Cost)
			p.SetBounds(j, 0, hi)
		}
		for pos, id := range cv.ExportArcs() {
			j := k*stride + nIn + pos
			p.SetObjectiveCoeff(j, base.Arc(id).Cost)
			p.SetBounds(j, 0, hi)
		}
		for pos := range cv.ImportArcs() {
			p.SetBounds(k*stride+nIn+nEx+pos, 0, hi)
		}
		for _, j := range pr.supplyCol[k] {
			p.SetBounds(j, 0, hi)
		}
	}
	// Per-node incidence in within-item offsets, reused for every item.
	nLocal := cv.NumNodes()
	outOf := make([][]int, nLocal) // +1 coefficients
	inOf := make([][]int, nLocal)  // -1 coefficients
	for pos, id := range cv.InternalArcs() {
		a := base.Arc(id)
		lf, _ := cv.LocalNode(a.From)
		lt, _ := cv.LocalNode(a.To)
		outOf[lf] = append(outOf[lf], pos)
		inOf[lt] = append(inOf[lt], pos)
	}
	for pos, id := range cv.ExportArcs() {
		lf, _ := cv.LocalNode(base.Arc(id).From)
		outOf[lf] = append(outOf[lf], nIn+pos)
	}
	for pos, id := range cv.ImportArcs() {
		lt, _ := cv.LocalNode(base.Arc(id).To)
		inOf[lt] = append(inOf[lt], nIn+nEx+pos)
	}
	row := lp.NewRowBuilder(p)
	nrows := 0
	for k, ad := range active {
		pr.consRow[k] = make([]int, nLocal)
		ri := 0
		for li := 0; li < nLocal; li++ {
			pr.consRow[k][li] = -1
			v := cv.GlobalNode(li)
			for _, off := range outOf[li] {
				row.Add(k*stride+off, 1)
			}
			for _, off := range inOf[li] {
				row.Add(k*stride+off, -1)
			}
			if ri < len(pr.replicas[k]) && pr.replicas[k][ri] == v {
				row.Add(pr.supplyCol[k][ri], -1)
				ri++
			}
			supply := 0.0
			if d, isSink := ad.sinks[v]; isSink {
				supply = -d
			}
			if row.Len() == 0 {
				if supply != 0 {
					return nil, fmt.Errorf("node %d has demand but no incident arcs", v)
				}
				continue
			}
			if err := row.Constrain(lp.EQ, supply); err != nil {
				return nil, err
			}
			pr.consRow[k][li] = nrows
			nrows++
		}
	}
	// Shared capacities: internal arcs, and exports (the tail cell owns a
	// gateway arc's capacity; the head cell's import copy is the priced
	// consensus partner, not a second capacity).
	for pos, id := range cv.InternalArcs() {
		c := base.Arc(id).Cap
		if math.IsInf(c, 1) {
			continue
		}
		for k := 0; k < nc; k++ {
			row.Add(k*stride+pos, 1)
		}
		if err := row.Constrain(lp.LE, c); err != nil {
			return nil, err
		}
	}
	for pos, id := range cv.ExportArcs() {
		c := base.Arc(id).Cap
		if math.IsInf(c, 1) {
			continue
		}
		for k := 0; k < nc; k++ {
			row.Add(k*stride+nIn+pos, 1)
		}
		if err := row.Constrain(lp.LE, c); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// mutateCellPrograms rewrites the demand-dependent data of cached cell
// skeletons in place — conservation right-hand sides and per-item variable
// bounds — and reports whether the cache applied. The structure (rows,
// columns, replica sets) is pinned by the caller's cache key (same
// auxiliary graph at the same generation implies the same replica groups);
// any residual mismatch tells the caller to rebuild.
//
//jcr:celllocal
func mutateCellPrograms(progs []*cellProg, active []itemDemand) bool {
	for _, pr := range progs {
		if len(pr.consRow) != len(active) {
			return false
		}
		cv := pr.view
		for k, ad := range active {
			hi := ad.total
			for off := 0; off < pr.stride; off++ {
				pr.prob.SetBounds(k*pr.stride+off, 0, hi)
			}
			for _, j := range pr.supplyCol[k] {
				pr.prob.SetBounds(j, 0, hi)
			}
			for li := 0; li < cv.NumNodes(); li++ {
				supply := 0.0
				if d, isSink := ad.sinks[cv.GlobalNode(li)]; isSink {
					supply = -d
				}
				ri := pr.consRow[k][li]
				if ri < 0 {
					if supply != 0 {
						return false
					}
					continue
				}
				if err := pr.prob.SetConstraintRHS(ri, supply); err != nil {
					return false
				}
			}
		}
	}
	return true
}

// SolveMMSFPDecomposed runs the partition-aware solve directly on a fixed
// placement with no heuristic fallbacks, returning the duality certificate:
// the monolithic MMSFP optimum (SolveMMSFPExact) lies in
// [LowerBound, PrimalCost] on every feasible instance. Intended for the
// differential suite and benchmarks; the evaluation-scale path is Route
// with Options.Decompose.
func SolveMMSFPDecomposed(ctx context.Context, s *placement.Spec, pl *placement.Placement, dec DecomposeOptions, workers int) (*DecomposeInfo, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var active []itemDemand
	var groups [][]graph.NodeID
	for i := 0; i < s.NumItems; i++ {
		sinks := map[graph.NodeID]float64{}
		var total float64
		for v, r := range s.Rates[i] {
			if r > 0 {
				sinks[v] += r
				total += r
			}
		}
		if total == 0 {
			continue
		}
		reps := pl.Replicas(i)
		if len(reps) == 0 {
			return nil, fmt.Errorf("routing: item %d has no replicas", i)
		}
		active = append(active, itemDemand{item: i, sinks: sinks, sorted: sortedSinks(sinks), total: total})
		groups = append(groups, reps)
	}
	if len(active) == 0 {
		return &DecomposeInfo{}, nil
	}
	aux := graph.NewAuxiliary(s.G, groups)
	opts := Options{Workers: workers, Decompose: &dec}
	_, info, err := decomposedFlows(ctx, aux, active, opts)
	return info, err
}
