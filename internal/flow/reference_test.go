package flow

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jcr/internal/graph"
)

// sortedDemands lists a sink map in ascending node order, the form
// Decompose takes.
func sortedDemands(m map[graph.NodeID]float64) []Demand {
	out := make([]Demand, 0, len(m))
	for t, d := range m {
		out = append(out, Demand{Node: t, Amount: d})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Node < out[b].Node })
	return out
}

// MinCostFlowToSinks ships every sink's Amount from src to its Node at
// minimum cost and returns the arc flow, indexed like g's arcs. It solves
// the super-sink construction (a zero-cost arc of capacity Amount from
// each sink to one added node, in the order given) on a residual network
// built straight from g, so g is neither copied nor mutated. capOf, when
// non-nil, overrides g's arc capacities. The residual arcs, and hence the
// flow, are those MinCostFlow computes on a copy of g with the same
// capacities and the sink arcs appended. It returns
// ErrInsufficientCapacity if the network cannot carry the total demand.
// Routing solved every per-item flow this way, on a fresh residual
// network of the whole auxiliary graph, before the overlay network; it is
// the overlay's oracle (overlayMatches) and the subject of checkToSinks.
func MinCostFlowToSinks(ctx context.Context, g *graph.Graph, capOf func(graph.ArcID) float64, src graph.NodeID, sinks []Demand) ([]float64, error) {
	r := newResNet(g, capOf, src, sinks)
	defer resNetPool.Put(r)
	var total float64
	for _, d := range sinks {
		total += d.Amount
	}
	if err := r.ship(ctx, src, r.n-1, total, src, r.n-1); err != nil {
		return nil, err
	}
	return r.extract(g, src).Arc, nil
}

// Cost computes the total routing cost of an arc flow.
func Cost(g *graph.Graph, arcFlow []float64) float64 {
	var c float64
	for id, f := range arcFlow {
		c += f * g.Arc(id).Cost
	}
	return c
}

// TestDecomposeMatchesReference checks Decompose against decomposeMap on
// random multi-sink flows: min-cost flows, the same with circulations laid
// over them (cycle cancellation), with LP-like noise on empty arcs, with
// sinks of negligible demand, and with the source among the sinks. The
// paths, their amounts (by bits) and sinks, and the errors must agree.
func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	compared := 0
	for trial := 0; trial < 600; trial++ {
		n := 3 + rng.Intn(8)
		g := randomFlowGraph(rng, n)
		gg := g.Clone()
		super := gg.AddNode()
		sinks := map[graph.NodeID]float64{}
		var total float64
		for k := 0; k < 1+rng.Intn(4); k++ {
			s := 1 + rng.Intn(n-1)
			if _, dup := sinks[s]; dup {
				continue
			}
			d := 0.1 + 3*rng.Float64()
			sinks[s] = d
			total += d
			gg.AddArc(s, super, 0, d)
		}
		res, err := MinCostFlow(nil, gg, 0, super, total)
		if err != nil {
			continue
		}
		arcFlow := res.Arc[:g.NumArcs()]
		switch trial % 4 {
		case 1:
			// A circulation along a random closed walk.
			for c := 0; c < 1+rng.Intn(3); c++ {
				addRandomCycle(rng, g, arcFlow)
			}
		case 2:
			// Round-off noise just above the per-arc zero threshold.
			for id := range arcFlow {
				if arcFlow[id] < eps && rng.Float64() < 0.3 {
					arcFlow[id] = 5 * arcEpsRel * (1 + total)
				}
			}
		case 3:
			// A sink of negligible demand, and the source as a sink.
			sinks[n-1] += eps / 2
			if rng.Float64() < 0.5 {
				sinks[0] = 0
			}
		}
		want, wantErr := decomposeMap(g, arcFlow, 0, sinks)
		got, gotErr := Decompose(g, arcFlow, 0, sortedDemands(sinks))
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d paths, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			w, h := want[i], got[i]
			if h.Sink != w.Sink || math.Float64bits(h.Amount) != math.Float64bits(w.Amount) || fmt.Sprint(h.Path.Arcs) != fmt.Sprint(w.Path.Arcs) {
				t.Fatalf("trial %d path %d: %+v, reference %+v", trial, i, h, w)
			}
		}
		compared++
	}
	if compared < 300 {
		t.Fatalf("only %d instances compared, want at least 300", compared)
	}
}

// TestDecomposeRejectsUnsortedSinks checks the sink list's contract: nodes
// strictly ascending and inside the graph.
func TestDecomposeRejectsUnsortedSinks(t *testing.T) {
	g := graph.New(3)
	g.AddArc(0, 1, 1, 5)
	g.AddArc(1, 2, 1, 5)
	f := []float64{2, 1}
	for _, sinks := range [][]Demand{
		{{Node: 2, Amount: 1}, {Node: 1, Amount: 1}},
		{{Node: 1, Amount: 1}, {Node: 1, Amount: 1}},
		{{Node: 3, Amount: 1}},
		{{Node: -1, Amount: 1}},
	} {
		if _, err := Decompose(g, f, 0, sinks); err == nil {
			t.Errorf("sinks %v: no error", sinks)
		}
	}
	if _, err := Decompose(g, f, 0, []Demand{{Node: 1, Amount: 1}, {Node: 2, Amount: 1}}); err != nil {
		t.Errorf("ascending sinks: %v", err)
	}
}

// addRandomCycle adds one unit of flow times a random amount around a
// closed walk of g found by following random out-arcs, if one closes
// within n steps.
func addRandomCycle(rng *rand.Rand, g *graph.Graph, arcFlow []float64) {
	start := rng.Intn(g.NumNodes())
	var walk []graph.ArcID
	seen := map[graph.NodeID]int{start: 0}
	v := start
	for step := 0; step < g.NumNodes(); step++ {
		out := g.Out(v)
		if len(out) == 0 {
			return
		}
		id := out[rng.Intn(len(out))]
		walk = append(walk, id)
		v = g.Arc(id).To
		if at, ok := seen[v]; ok {
			amt := 0.5 + rng.Float64()
			for _, c := range walk[at:] {
				arcFlow[c] += amt
			}
			return
		}
		seen[v] = len(walk)
	}
}

// decomposeMap is the map-keyed Decompose the sorted-list one replaced,
// kept as its oracle. It splits a single-commodity arc flow rooted at src into simple
// paths, each ending at a sink with positive demand. demand maps sink nodes
// to the amount of flow terminating there; the arc flow must satisfy
// conservation with net outflow sum(demand) at src and net inflow demand[t]
// at each sink t (the flow-decomposition precondition). Cycles in the flow
// are canceled and dropped, which never increases cost since arc costs are
// nonnegative. The number of returned paths is at most |E| plus the number
// of sinks, matching the bound used in the proof of Theorem 4.7.
func decomposeMap(g *graph.Graph, arcFlow []float64, src graph.NodeID, demand map[graph.NodeID]float64) ([]PathFlow, error) {
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
