package flow

import (
	"fmt"
	"sync"

	"jcr/internal/graph"
)

// PathFlow is one path of a flow decomposition together with the amount of
// flow it carries and the sink it serves.
type PathFlow struct {
	Path   graph.Path
	Amount float64
	Sink   graph.NodeID
}

// decomposeScratch is Decompose's working memory: the residual arc flow,
// the unserved demand per node, the walk's cycle stamps and the walk
// itself. Routing decomposes one flow per item per Route, so the scratch
// is pooled instead of allocated per call.
type decomposeScratch struct {
	res, remaining []float64
	stamp          []int
	arcs           []graph.ArcID
}

var decomposePool = sync.Pool{New: func() any { return new(decomposeScratch) }}

// Decompose splits a single-commodity arc flow rooted at src into simple
// paths, each ending at a sink with positive demand. sinks lists the nodes
// where flow terminates, in strictly ascending node order, with the amount
// each receives; the arc flow must satisfy conservation with net outflow
// the sum of the amounts at src and net inflow Amount at each sink (the
// flow-decomposition precondition). Cycles in the flow are canceled and
// dropped, which never increases cost since arc costs are nonnegative. The
// number of returned paths is at most |E| plus the number of sinks,
// matching the bound used in the proof of Theorem 4.7.
func Decompose(g *graph.Graph, arcFlow []float64, src graph.NodeID, sinks []Demand) ([]PathFlow, error) {
	if len(arcFlow) != g.NumArcs() {
		return nil, fmt.Errorf("flow: arc flow has %d entries for %d arcs", len(arcFlow), g.NumArcs())
	}
	sc := decomposePool.Get().(*decomposeScratch)
	defer decomposePool.Put(sc)
	sc.res = append(sc.res[:0], arcFlow...)
	res := sc.res
	// remaining[v] is the demand still unserved at v, zero off the sinks.
	sc.remaining = resize(sc.remaining, g.NumNodes())
	remaining := sc.remaining
	clear(remaining)
	var total float64
	// total is summed in ascending sink order: it feeds the tolerances
	// below, so the order fixes their last bits.
	for j, d := range sinks {
		if d.Node < 0 || d.Node >= g.NumNodes() || (j > 0 && d.Node <= sinks[j-1].Node) {
			return nil, fmt.Errorf("flow: sink %d at position %d is out of range or out of ascending order", d.Node, j)
		}
		if d.Amount > eps {
			remaining[d.Node] = d.Amount
			total += d.Amount
		}
	}
	// Tolerances scale with the demand magnitude so that float residue
	// on large instances (rates of ~1e6 requests/hour) does not read as
	// missing flow.
	tol := eps * (1 + total)
	arcTol := arcEpsRel * (1 + total)
	out := make([]PathFlow, 0, len(sinks))
	// Every walk is built in this one buffer; a finished path is copied
	// out once into flat, which the returned paths share as disjoint
	// windows (a full flat is replaced, never written over).
	var flat []graph.ArcID
	arcs := sc.arcs[:0]
	defer func() { sc.arcs = arcs[:0] }()
	// stamp marks nodes on the current walk for cycle detection.
	sc.stamp = resize(sc.stamp, g.NumNodes())
	stamp := sc.stamp
	clear(stamp)
	walkID := 0

	for total > tol {
		walkID++
		// Walk from src along positive-flow arcs until reaching a sink
		// with remaining demand. On revisiting a node, cancel the cycle.
		arcs = arcs[:0]
		v := src
		stamp[v] = walkID
		for {
			if remaining[v] > tol && v != src {
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
				if remaining[v] > tol {
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
		if cap(flat)-len(flat) < len(arcs) {
			flat = make([]graph.ArcID, 0, max(2*cap(flat), 4*len(arcs)))
		}
		a := len(flat)
		flat = append(flat, arcs...)
		out = append(out, PathFlow{
			Path:   graph.Path{Arcs: flat[a:len(flat):len(flat)]},
			Amount: amount,
			Sink:   v,
		})
	}
	return out, nil
}
