package main

import (
	"context"
	"math/rand"
	"sort"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/online"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// spGraph builds the shortest-path benchmark topology: a random connected
// edge-paired graph with small integer costs (equal-cost shortest paths
// everywhere, the tie-heavy regime the canonical kernels pay for).
func spGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(97))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
	}
	for e := 0; e < 3*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
		}
	}
	return g
}

// referenceYenK is the pre-engine Yen implementation, preserved as the
// before side of the yen_k25 pair: per-spur ban maps, a full
// ReferenceDijkstra per spur (no goal early-exit, fresh allocations), and
// the same candidate ordering and dedup rules as graph.KShortestPaths.
func referenceYenK(g *graph.Graph, src, dst graph.NodeID, k int) []graph.Path {
	if k <= 0 {
		return nil
	}
	first, ok := graph.ReferenceDijkstra(g, src, nil, nil).PathTo(g, dst)
	if !ok {
		return nil
	}
	if src == dst {
		return []graph.Path{{}}
	}
	accepted := []graph.Path{first}
	type cand struct {
		path graph.Path
		cost float64
	}
	var candidates []cand
	seen := map[uint64][][]graph.ArcID{}
	add := func(arcs []graph.ArcID) bool {
		const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
		var h uint64 = fnvOffset
		for _, id := range arcs {
			h = (h ^ uint64(uint32(id))) * fnvPrime
		}
		for _, prev := range seen[h] {
			if sameArcSeq(prev, arcs) {
				return false
			}
		}
		seen[h] = append(seen[h], arcs)
		return true
	}
	add(first.Arcs)

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		prevNodes := prev.Nodes(g)
		for i := 0; i < len(prevNodes)-1; i++ {
			spurNode := prevNodes[i]
			rootArcs := prev.Arcs[:i]
			banArc := map[graph.ArcID]struct{}{}
			for _, p := range accepted {
				if len(p.Arcs) > i && sameArcSeq(p.Arcs[:i], rootArcs) {
					banArc[p.Arcs[i]] = struct{}{}
				}
			}
			banNode := map[graph.NodeID]struct{}{}
			for _, v := range prevNodes[:i] {
				banNode[v] = struct{}{}
			}
			tree := graph.ReferenceDijkstra(g, spurNode,
				func(id graph.ArcID) bool { _, b := banArc[id]; return b },
				func(v graph.NodeID) bool { _, b := banNode[v]; return b })
			spur, ok := tree.PathTo(g, dst)
			if !ok {
				continue
			}
			total := graph.Path{Arcs: append(append([]graph.ArcID(nil), rootArcs...), spur.Arcs...)}
			if !add(total.Arcs) {
				continue
			}
			candidates = append(candidates, cand{path: total, cost: total.Cost(g)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		accepted = append(accepted, candidates[0].path)
		candidates = candidates[1:]
	}
	return accepted
}

func sameArcSeq(a, b []graph.ArcID) bool {
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

// rerouteHorizon is the fault-scenario online reroute workload, built
// once: a 24-hour horizon on a 400-node graph where links fail and
// recover on MTBF/MTTR chains, with replicas pinned across the network
// and a decision that never pre-plans — so every hour re-routes all true
// demand through the nearest-replica trees (the path the engine caches).
var rerouteHorizon []online.HourInput

func rerouteHours() []online.HourInput {
	if rerouteHorizon != nil {
		return rerouteHorizon
	}
	const n, hours, items = 400, 24, 2
	g := spGraph(n)
	rng := rand.New(rand.NewSource(31))
	var pinned []graph.NodeID
	for v := 3; v < n; v += n / 16 {
		pinned = append(pinned, v)
	}
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, n)
		for r := 0; r < 20; r++ {
			rates[i][rng.Intn(n)] = 1 + rng.Float64()
		}
	}
	mk := func() *placement.Spec {
		return &placement.Spec{
			G: g, NumItems: items,
			CacheCap: make([]float64, n),
			Pinned:   pinned,
			Rates:    rates,
		}
	}
	sc, err := faults.RandomLinkFaults(g, hours, 300, 4, 7)
	if err != nil {
		fatal(err)
	}
	for h := 0; h < hours; h++ {
		dec, truth, _, err := sc.Apply(h, mk(), mk())
		if err != nil {
			fatal(err)
		}
		rerouteHorizon = append(rerouteHorizon, online.HourInput{
			Hour: h, Decision: dec, Truth: truth, Dist: graph.AllPairs(dec.G),
		})
	}
	return rerouteHorizon
}

// rnrOnly is a strategy that never plans serving paths, forcing every
// request of every hour through the online fallback reroute.
type rnrOnly struct{}

func (rnrOnly) Name() string { return "rnr-only" }

func (rnrOnly) Decide(_ context.Context, inst strategy.Instance) (*strategy.Plan, strategy.Stats, error) {
	return &strategy.Plan{Placement: inst.Spec.NewPlacement()}, strategy.Stats{Iterations: 1}, nil
}

// faultReroute runs the online controller over the fault horizon, with the
// cross-hour tree engine (the after side) or with every tree cold (the
// before side, Options.NoTreeReuse).
func faultReroute(noTreeReuse bool) error {
	_, err := online.Run(context.Background(), rnrOnly{}, rerouteHours(),
		online.Options{Resilient: true, NoTreeReuse: noTreeReuse})
	return err
}

// Benchmark fixtures for the kernel pairs, built once at init: a 400-node
// tie-heavy graph for the single-tree pair and a 150-node one for Yen
// (k=25 runs hundreds of spur searches per call).
var (
	spTreeGraph = spGraph(400)
	spYenGraph  = spGraph(600)
	dijkstraSrc = graph.NodeID(0)
)
