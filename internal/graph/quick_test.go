package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// quickGraph is a random connected graph generated for testing/quick.
type quickGraph struct {
	G   *Graph
	Src NodeID
	Dst NodeID
}

// Generate implements quick.Generator: a connected random graph with
// integer costs and a random source/destination pair.
func (quickGraph) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 2 + rng.Intn(8)
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, float64(1+rng.Intn(20)), float64(1+rng.Intn(10)))
	}
	extra := rng.Intn(2 * n)
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, float64(1+rng.Intn(20)), float64(1+rng.Intn(10)))
		}
	}
	return reflect.ValueOf(quickGraph{G: g, Src: rng.Intn(n), Dst: rng.Intn(n)})
}

// Shortest-path distances satisfy the triangle inequality through any
// intermediate node, and every returned path's cost equals its distance.
func TestQuickDijkstraTriangleInequality(t *testing.T) {
	property := func(qg quickGraph) bool {
		dist := AllPairs(qg.G)
		n := qg.G.NumNodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if dist[a][b] > dist[a][c]+dist[c][b]+1e-9 {
						return false
					}
				}
			}
		}
		tree := TreeOf(qg.G, qg.Src)
		for v := 0; v < n; v++ {
			p, ok := tree.PathTo(qg.G, v)
			if !ok {
				if !math.IsInf(tree.Dist[v], 1) {
					return false
				}
				continue
			}
			if p.Validate(qg.G, qg.Src, v) != nil {
				return false
			}
			if math.Abs(p.Cost(qg.G)-tree.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Yen's k paths are sorted by cost, distinct, and all valid.
func TestQuickKShortestSortedDistinct(t *testing.T) {
	property := func(qg quickGraph) bool {
		paths := KShortestPaths(qg.G, qg.Src, qg.Dst, 5)
		seen := map[string]bool{}
		last := math.Inf(-1)
		for _, p := range paths {
			if qg.Src != qg.Dst && p.Validate(qg.G, qg.Src, qg.Dst) != nil {
				return false
			}
			c := p.Cost(qg.G)
			if c < last-1e-9 {
				return false
			}
			last = c
			key := fmt.Sprint(p.Arcs)
			if seen[key] {
				return false
			}
			seen[key] = true
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// The auxiliary construction preserves base arcs and adds exactly one
// zero-cost uncapacitated arc per (group, source).
func TestQuickAuxiliaryInvariants(t *testing.T) {
	property := func(qg quickGraph, groupSeed int64) bool {
		rng := rand.New(rand.NewSource(groupSeed))
		n := qg.G.NumNodes()
		groups := make([][]NodeID, 1+rng.Intn(3))
		total := 0
		for gi := range groups {
			k := 1 + rng.Intn(n)
			seen := map[NodeID]bool{}
			for len(groups[gi]) < k {
				v := rng.Intn(n)
				if !seen[v] {
					seen[v] = true
					groups[gi] = append(groups[gi], v)
				}
			}
			total += len(groups[gi])
		}
		aux := NewAuxiliary(qg.G, groups)
		if aux.G.NumNodes() != n+len(groups) {
			return false
		}
		if aux.G.NumArcs() != qg.G.NumArcs()+total {
			return false
		}
		for id := 0; id < qg.G.NumArcs(); id++ {
			if aux.G.Arc(id) != qg.G.Arc(id) {
				return false
			}
			if aux.IsVirtualArc(id) {
				return false
			}
		}
		for id := qg.G.NumArcs(); id < aux.G.NumArcs(); id++ {
			a := aux.G.Arc(id)
			if !aux.IsVirtualArc(id) || a.Cost != 0 || !math.IsInf(a.Cap, 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
