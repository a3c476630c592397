package strategy

import (
	"context"

	"jcr/internal/graph"
	"jcr/internal/routing"
	"jcr/internal/topo"
)

func init() {
	register("decomposed", "partition-aware alternating optimizer: cells solve priced sub-LPs (DESIGN.md §10)",
		func(o Options) Strategy { return &Decomposed{Alternating: Alternating{Options: o}} })
}

// defaultCellTarget is the nodes-per-cell the partitioner aims for: about
// one Rocketfuel-sized block per cell, small enough that each cell LP stays
// comfortably under the monolithic size ceiling.
const defaultCellTarget = 24

// Decomposed is the partition-aware variant of the alternating optimizer
// for networks too large for the monolithic multicommodity LP: it cuts the
// graph into cells (topo.Partition — or the instance's intrinsic blocks
// when the graph is a topo.Composite), solves a small LP per cell, and
// coordinates them through Lagrangian prices on the gateway arcs
// (routing.DecomposeOptions, DESIGN.md §10). On instances at or below the
// routing layer's size threshold the decomposition stands down and the
// behavior is exactly Alternating's monolithic solve, so the strategy is
// safe to run at any scale. The node-to-cell assignment is derived once per
// graph (pointer and generation) and cached across Decide calls.
type Decomposed struct {
	Alternating
	// MinVars overrides the routing layer's monolithic-fallback threshold
	// (flow-variable count); zero keeps the routing default.
	MinVars int

	assignG   *graph.Graph
	assignGen uint64
	assign    []int
}

// Name implements Strategy.
func (d *Decomposed) Name() string { return "decomposed" }

// Invalidate implements Warm.
func (d *Decomposed) Invalidate() {
	d.Alternating.Invalidate()
	d.assignG = nil
	d.assign = nil
}

// Decide implements Strategy: derive (or reuse) the cell assignment for the
// instance's graph, thread it into the routing options, and run the
// alternating loop.
func (d *Decomposed) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	d.Decompose = d.cellAssignment(inst.Spec.G)
	return d.Alternating.Decide(ctx, inst)
}

// cellAssignment returns the decomposition config for g, partitioning once
// per (graph pointer, generation). A graph the partitioner rejects (or one
// too small for 2 cells) returns nil, which keeps the monolithic path.
func (d *Decomposed) cellAssignment(g *graph.Graph) *routing.DecomposeOptions {
	if g == nil || g.NumNodes() < 2 {
		return nil
	}
	if d.assignG != g || d.assignGen != g.Gen() {
		k := (g.NumNodes() + defaultCellTarget - 1) / defaultCellTarget
		if k < 2 {
			k = 2
		}
		assign, err := topo.Partition(g, k)
		if err != nil {
			return nil
		}
		d.assignG = g
		d.assignGen = g.Gen()
		d.assign = assign
	}
	return &routing.DecomposeOptions{Assign: d.assign, MinVars: d.MinVars}
}
