package experiments

import (
	"context"
	"fmt"

	"jcr/internal/demand"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// The scaling experiment measures the partition-aware solve pipeline
// (DESIGN.md §10) where it was built to matter: composite networks far
// beyond the monolithic multicommodity LP's reach. Each cell stitches K
// Abovenet-style blocks through gateway links (topo.Composite), pins the
// catalog at every block's origin (regional mirrors), and spreads Zipf
// demand over all edge nodes; the grid sweeps K x catalog size and the
// scorecard records the wall-clock curve of the decomposed strategy next
// to the monolithic alternating baseline on the cells the baseline can
// still attempt. The strategies run sequentially, one bout at a time, with
// cfg.Workers threaded inside the bout (the decomposition's per-cell
// parallelism) — so `-workers N` changes wall-clock only, never results.

const (
	// scalingAlpha is the Zipf skew of every scaling cell.
	scalingAlpha = 0.8
	// scalingBlockRate is the request rate per stitched block; total cell
	// demand scales linearly with K so per-block load is constant.
	scalingBlockRate = 10000.0
	// scalingCapFrac sets link capacities to this fraction of a single
	// block's rate — per-link capacity stays constant as K grows, since
	// each block carries its own demand. Tight enough that per-item
	// independent routing overloads cheap shared links and the coupled
	// multicommodity solve (monolithic or decomposed) must run; block
	// augmentation keeps every cell feasible.
	scalingCapFrac = 0.005
	// scalingMonoMaxBlocks is the largest composite the monolithic
	// baseline is asked to attempt; above it the bout is recorded as
	// skipped — the point of the curve is that only the decomposed
	// pipeline keeps going.
	scalingMonoMaxBlocks = 4
	// scalingMinVars forces the decomposed strategy's partition path on
	// every scaling cell (its production stand-down threshold would keep
	// small-K cells monolithic, which is the baseline's column here).
	scalingMinVars = 1
	// scalingMaxRounds bounds the alternating rounds per bout, the same
	// for both strategies, keeping the full grid tractable.
	scalingMaxRounds = 4
	// scalingServedTol is the slack on the full-service check: the
	// decomposed strategy must serve everything on these feasible cells.
	scalingServedTol = 1e-3
)

// ScalingCell is one point of the K x catalog grid.
type ScalingCell struct {
	Blocks  int `json:"blocks"`
	Catalog int `json:"catalog"`
}

// Name is the cell's stable id, e.g. "abovenet-x16/c24".
func (c ScalingCell) Name() string {
	return fmt.Sprintf("abovenet-x%d/c%d", c.Blocks, c.Catalog)
}

// scalingCells returns the sweep grid. Quick mode is the CI smoke subset:
// two small composites, one catalog size.
func scalingCells(quick bool) []ScalingCell {
	blocks := []int{1, 4, 8, 16}
	catalogs := []int{16, 48}
	if quick {
		blocks = []int{1, 2}
		catalogs = []int{16}
	}
	var cells []ScalingCell
	for _, cat := range catalogs {
		for _, k := range blocks {
			cells = append(cells, ScalingCell{Blocks: k, Catalog: cat})
		}
	}
	return cells
}

// Scaling runs the sweep and returns the ranked scorecard. Bouts run
// sequentially (composite cells dwarf arena cells; the parallelism lives
// inside each solve), so the scorecard is bit-for-bit identical for any
// cfg.Workers when no clock is injected.
func Scaling(ctx context.Context, cfg *Config, quick bool) (*Scorecard, error) {
	cells := scalingCells(quick)
	names := []string{"alternating", "decomposed"}
	sc := &Scorecard{Title: "partition scaling sweep", Quick: quick, Seed: cfg.Seed}
	for _, cell := range cells {
		sc.Cells = append(sc.Cells, cell.Name())
	}
	var results []ArenaResult
	for _, cell := range cells {
		spec, err := buildScalingCell(cfg, cell)
		if err != nil {
			return nil, fmt.Errorf("scaling: cell %s: %w", cell.Name(), err)
		}
		dist := graph.AllPairs(spec.G)
		for _, name := range names {
			results = append(results, runScalingBout(ctx, cfg, cell, spec, dist, name))
		}
	}
	sc.Results = results
	sc.Rows = rankArena(names, results)
	return sc, nil
}

// buildScalingCell constructs one composite cell: K cost-assigned Abovenet
// blocks stitched through gateways, the catalog pinned at every block
// origin, Zipf demand spread over all edge nodes, uniform capacities
// augmented block-by-block to feasibility, and chunk-slot caches at the
// edges.
func buildScalingCell(cfg *Config, cell ScalingCell) (*placement.Spec, error) {
	base := topo.Abovenet(cfg.Seed)
	r := rng.Derive(cfg.Seed, 9500+int64(cell.Blocks)*100+int64(cell.Catalog))
	base.AssignCosts(r, 100, 200, 1, 20)
	comp, err := topo.Composite(base, cell.Blocks)
	if err != nil {
		return nil, err
	}
	totalRate := scalingBlockRate * float64(cell.Blocks)
	pop := demand.Zipf(cell.Catalog, scalingAlpha)
	itemRates := make([]float64, cell.Catalog)
	for i := range itemRates {
		itemRates[i] = pop[i] * totalRate
	}
	perEdge := demand.SpreadToEdges(itemRates, len(comp.Edges), r)
	rates := make([][]float64, cell.Catalog)
	edgeTotals := make([]float64, len(comp.Edges))
	for i := range rates {
		rates[i] = make([]float64, comp.G.NumNodes())
		for e, v := range comp.Edges {
			rates[i][v] = perEdge[i][e]
			edgeTotals[e] += perEdge[i][e]
		}
	}
	comp.SetUniformCapacity(scalingCapFrac * scalingBlockRate)
	if err := comp.AugmentBlockFeasibility(edgeTotals); err != nil {
		return nil, err
	}
	cacheCap := make([]float64, comp.G.NumNodes())
	for _, v := range comp.Edges {
		cacheCap[v] = cfg.ChunkSlots
	}
	return &placement.Spec{
		G:        comp.G,
		NumItems: cell.Catalog,
		CacheCap: cacheCap,
		Pinned:   comp.BlockOrigins,
		Rates:    rates,
	}, nil
}

// runScalingBout runs one strategy on one composite cell. The monolithic
// baseline is recorded as skipped above scalingMonoMaxBlocks instead of
// being run; the decomposed strategy is forced onto its partition path on
// every cell so the curve measures the decomposition, not its stand-down.
// Solver reuse stays on — warm per-cell resolves across alternating rounds
// are part of what the experiment measures.
func runScalingBout(ctx context.Context, cfg *Config, cell ScalingCell, spec *placement.Spec, dist [][]float64, name string) ArenaResult {
	res := ArenaResult{Cell: cell.Name(), Strategy: name, Delay: -1}
	if name == "alternating" && cell.Blocks > scalingMonoMaxBlocks {
		res.Status = "skipped"
		res.Err = fmt.Sprintf("monolithic baseline not attempted beyond %d blocks", scalingMonoMaxBlocks)
		return res
	}
	alt := strategy.Alternating{Options: strategy.Options{
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
		MaxIters:   scalingMaxRounds,
		BestEffort: true,
	}}
	var st strategy.Strategy
	if name == "decomposed" {
		st = &strategy.Decomposed{Alternating: alt, MinVars: scalingMinVars}
	} else {
		st = &alt
	}
	inst := strategy.Instance{Spec: spec, Dist: dist}
	lap := cfg.stopwatch()
	plan, stats, err := st.Decide(ctx, inst)
	res.WallMS = lap().Seconds() * 1000
	res.Iterations = stats.Iterations
	res.Method = stats.Method
	if err != nil {
		res.Status = "failed"
		res.Err = err.Error()
		return res
	}
	if err := strategy.Validate(inst, plan); err != nil {
		res.Status = "failed"
		res.Err = err.Error()
		return res
	}
	total := 0.0
	for i := range spec.Rates {
		for _, lam := range spec.Rates[i] {
			total += lam
		}
	}
	served := total - plan.UnservedMass()
	res.Status = "ok"
	res.Congestion = plan.MaxUtilization
	if total > 0 {
		res.Served = served / total
	}
	if served > 0 {
		res.Delay = plan.Cost / served
	}
	return res
}

// scalingRun adapts the scaling scorecard to the plain Run signature.
func scalingRun(ctx context.Context, cfg *Config) (string, error) {
	sc, err := Scaling(ctx, cfg, false)
	if err != nil {
		return "", err
	}
	return sc.Render(), nil
}

// scalingCheck is the claim EXPERIMENTS.md makes for the scaling curve:
// the decomposed pipeline completes every composite cell — including the
// ones the monolithic baseline does not attempt — serving all demand, and
// the baseline completes at least the small-K overlap so the curve has a
// reference.
func scalingCheck(sc *Scorecard) error {
	dec, ok := sc.Row("decomposed")
	if !ok {
		return fmt.Errorf("scaling: no decomposed row in the scorecard")
	}
	if dec.CellsOK != len(sc.Cells) {
		return fmt.Errorf("scaling: decomposed completed %d of %d cells (%d failed, %d skipped)",
			dec.CellsOK, len(sc.Cells), dec.Failed, dec.Skipped)
	}
	if dec.Served < 1-scalingServedTol {
		return fmt.Errorf("scaling: decomposed served fraction %.6f below %g", dec.Served, 1-scalingServedTol)
	}
	alt, ok := sc.Row("alternating")
	if !ok || alt.CellsOK == 0 {
		return fmt.Errorf("scaling: monolithic baseline completed no cells; the curve has no reference")
	}
	if alt.Failed > 0 {
		return fmt.Errorf("scaling: monolithic baseline failed %d attempted cells", alt.Failed)
	}
	return nil
}
