package flow

import (
	"fmt"
	"sort"

	"jcr/internal/graph"
)

// PathFlow is one path of a flow decomposition together with the amount of
// flow it carries and the sink it serves.
type PathFlow struct {
	Path   graph.Path
	Amount float64
	Sink   graph.NodeID
}

// Decompose splits a single-commodity arc flow rooted at src into simple
// paths, each ending at a sink with positive demand. demand maps sink nodes
// to the amount of flow terminating there; the arc flow must satisfy
// conservation with net outflow sum(demand) at src and net inflow demand[t]
// at each sink t (the flow-decomposition precondition). Cycles in the flow
// are canceled and dropped, which never increases cost since arc costs are
// nonnegative. The number of returned paths is at most |E| plus the number
// of sinks, matching the bound used in the proof of Theorem 4.7.
func Decompose(g *graph.Graph, arcFlow []float64, src graph.NodeID, demand map[graph.NodeID]float64) ([]PathFlow, error) {
	if len(arcFlow) != g.NumArcs() {
		return nil, fmt.Errorf("flow: arc flow has %d entries for %d arcs", len(arcFlow), g.NumArcs())
	}
	res := append([]float64(nil), arcFlow...)
	remaining := make(map[graph.NodeID]float64, len(demand))
	var total float64
	// Sum demand in sorted sink order: total feeds the tolerances below,
	// and map iteration order would otherwise leak into their last bits.
	sinks := make([]graph.NodeID, 0, len(demand))
	for t := range demand {
		sinks = append(sinks, t)
	}
	sort.Ints(sinks)
	for _, t := range sinks {
		if d := demand[t]; d > eps {
			remaining[t] = d
			total += d
		}
	}
	// Tolerances scale with the demand magnitude so that float residue
	// on large instances (rates of ~1e6 requests/hour) does not read as
	// missing flow.
	tol := eps * (1 + total)
	arcTol := arcEpsRel * (1 + total)
	var out []PathFlow
	// Every walk is built in this one buffer; a finished path is copied
	// out once, at its final length.
	var arcs []graph.ArcID
	// visitStamp marks nodes on the current walk for cycle detection.
	stamp := make([]int, g.NumNodes())
	walkID := 0

	for total > tol {
		walkID++
		// Walk from src along positive-flow arcs until reaching a sink
		// with remaining demand. On revisiting a node, cancel the cycle.
		arcs = arcs[:0]
		v := src
		stamp[v] = walkID
		for {
			if rem, isSink := remaining[v]; isSink && rem > tol && v != src {
				break
			}
			// Follow the largest-residual out-arc. LP-produced flows carry
			// round-off noise slightly above arcTol on arcs the true
			// solution leaves empty; the first-positive-arc walk could
			// follow such an arc into a dead end and wrongly report the
			// whole flow non-conservative. Real flow always dominates
			// noise, so the max-residual arc is safe to follow.
			var next graph.ArcID = -1
			for _, id := range g.Out(v) {
				if res[id] > arcTol && (next < 0 || res[id] > res[next]) {
					next = id
				}
			}
			if next < 0 {
				if rem, isSink := remaining[v]; isSink && rem > tol {
					break // src itself is a sink (degenerate but legal)
				}
				return nil, fmt.Errorf("flow: decomposition stuck at node %d with %.6g demand left (flow does not satisfy conservation)", v, total)
			}
			w := g.Arc(next).To
			if stamp[w] == walkID {
				// Found a cycle, arcs[cycleStart:] plus next; cancel it
				// and restart the walk.
				cycleStart := len(arcs)
				for k, id := range arcs {
					if g.Arc(id).From == w {
						cycleStart = k
						break
					}
				}
				cycle := append(arcs[cycleStart:], next)
				minf := res[cycle[0]]
				for _, id := range cycle[1:] {
					if res[id] < minf {
						minf = res[id]
					}
				}
				for _, id := range cycle {
					res[id] -= minf
				}
				// Restart the walk from scratch.
				arcs = arcs[:0]
				v = src
				walkID++
				stamp[v] = walkID
				continue
			}
			arcs = append(arcs, next)
			v = w
			stamp[v] = walkID
		}
		// v is a sink with remaining demand.
		amount := remaining[v]
		for _, id := range arcs {
			if res[id] < amount {
				amount = res[id]
			}
		}
		if amount <= arcTol {
			return nil, fmt.Errorf("flow: zero-width path extracted at sink %d", v)
		}
		for _, id := range arcs {
			res[id] -= amount
		}
		remaining[v] -= amount
		total -= amount
		out = append(out, PathFlow{
			Path:   graph.Path{Arcs: append([]graph.ArcID(nil), arcs...)},
			Amount: amount,
			Sink:   v,
		})
	}
	return out, nil
}

// Recompose converts path flows back to an arc flow, the inverse of
// Decompose up to dropped cycles.
func Recompose(g *graph.Graph, paths []PathFlow) []float64 {
	arc := make([]float64, g.NumArcs())
	for _, pf := range paths {
		for _, id := range pf.Path.Arcs {
			arc[id] += pf.Amount
		}
	}
	return arc
}
