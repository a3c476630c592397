package experiments

import (
	"context"
	"fmt"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// The scaling experiment measures the alternating optimizer on composite
// networks that grow past the multicommodity LP's reach (DESIGN.md §10).
// Each cell stitches K Abovenet-style blocks through gateway links
// (topo.Composite), pins the catalog at every block's origin (regional
// mirrors), and spreads Zipf demand over all edge nodes; the grid sweeps
// K x catalog size and the scorecard records alternating's wall-clock
// curve. Small cells route on the exact LP, the larger ones on the
// sequential residual heuristic (routing.Route's ladder). Bouts run one at
// a time with cfg.Workers threaded inside the bout (the per-item min-cost
// flows), so `-workers N` changes wall-clock only, never results.

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
	// routing rungs must run; block augmentation keeps every cell
	// feasible.
	scalingCapFrac = 0.005
	// scalingMaxRounds bounds the alternating rounds per bout, keeping the
	// full grid tractable.
	scalingMaxRounds = 4
	// scalingServedTol is the slack on the full-service check: alternating
	// must serve everything on these feasible cells.
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
	sc := &Scorecard{Title: "composite scaling sweep", Quick: quick, Seed: cfg.Seed}
	for _, cell := range cells {
		sc.Cells = append(sc.Cells, cell.Name())
	}
	var results []ArenaResult
	for _, cell := range cells {
		spec, err := buildScalingCell(cfg, cell)
		if err != nil {
			return nil, fmt.Errorf("scaling: cell %s: %w", cell.Name(), err)
		}
		// Solver reuse stays on: warm re-solves across alternating rounds
		// are part of what the experiment measures.
		st := &strategy.Alternating{Options: strategy.Options{
			Seed:       cfg.Seed,
			Workers:    cfg.Workers,
			MaxIters:   scalingMaxRounds,
			BestEffort: true,
		}}
		inst := strategy.Instance{Spec: spec, Dist: graph.AllPairs(spec.G)}
		results = append(results, scoreBout(ctx, cfg, cell.Name(), "alternating", st, inst))
	}
	sc.Results = results
	sc.Rows = rankArena([]string{"alternating"}, results)
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
	spec, edgeTotals := zipfSpec(comp.Network, cell.Catalog, scalingAlpha, scalingBlockRate*float64(cell.Blocks), cfg.ChunkSlots, r)
	spec.Pinned = comp.BlockOrigins
	comp.SetUniformCapacity(scalingCapFrac * scalingBlockRate)
	if err := comp.AugmentBlockFeasibility(edgeTotals); err != nil {
		return nil, err
	}
	return spec, nil
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
// alternating completes every composite cell, serving all demand.
func scalingCheck(sc *Scorecard) error {
	alt, ok := sc.Row("alternating")
	if !ok {
		return fmt.Errorf("scaling: no alternating row in the scorecard")
	}
	if alt.CellsOK != len(sc.Cells) {
		return fmt.Errorf("scaling: alternating completed %d of %d cells (%d failed, %d skipped)",
			alt.CellsOK, len(sc.Cells), alt.Failed, alt.Skipped)
	}
	if alt.Served < 1-scalingServedTol {
		return fmt.Errorf("scaling: alternating served fraction %.6f below %g", alt.Served, 1-scalingServedTol)
	}
	return nil
}
