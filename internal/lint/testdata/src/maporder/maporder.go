// Package maporder is a jcrlint golden-test fixture for the map-order
// analyzer: map iteration order leaking into appended slices, float
// accumulations, emitted output, channel sends and returned witnesses —
// the PR 3 routing/decompose bug class — versus the collect-then-sort
// idiom and exact integer accumulation.
package maporder

import (
	"fmt"
	"sort"
)

// PathFlow mirrors the flow-decomposition value the PR 3 leak escaped
// through.
type PathFlow struct {
	Sink   int
	Amount float64
}

// DecomposeLeak reproduces the PR 3 routing/decompose leak: per-dest path
// flows appended, and their amounts float-accumulated, in map iteration
// order (two violations). Returning the unsorted slice also exports the
// map-order fact.
func DecomposeLeak(byDest map[int][]PathFlow) []PathFlow {
	var out []PathFlow
	total := 0.0
	for dest, flows := range byDest {
		for _, pf := range flows {
			total += pf.Amount
			out = append(out, PathFlow{Sink: dest, Amount: pf.Amount})
		}
	}
	_ = total
	return out
}

// EmitLeaked ranges over DecomposeLeak's unsorted result: still map
// order, via the intra-package fact (violation).
func EmitLeaked(byDest map[int][]PathFlow) {
	for _, pf := range DecomposeLeak(byDest) {
		fmt.Println(pf.Sink)
	}
}

// SortedKeys is the sanctioned collect-then-sort idiom (compliant: the
// appended slice is sorted before use, so no finding and no fact).
func SortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SumSorted accumulates floats in sorted key order (compliant).
func SumSorted(m map[string]float64) float64 {
	total := 0.0
	for _, k := range SortedKeys(m) {
		total += m[k]
	}
	return total
}

// CountPositive accumulates an integer over map order (compliant:
// integer addition is exact and commutative).
func CountPositive(m map[string]float64) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// PublishLeak sends keys in map iteration order (violation).
func PublishLeak(m map[string]int, ch chan<- string) {
	for k := range m {
		ch <- k
	}
}

// AnyKey returns whichever key the runtime iterates first (violation:
// a nondeterministic witness).
func AnyKey(m map[string]int) string {
	for k := range m {
		return k
	}
	return ""
}

// DrainUnordered deliberately consumes the map in any order — the sink is
// an order-insensitive set union — so the finding is suppressed with a
// reason (no diagnostic in the golden).
func DrainUnordered(m map[string]int, sink chan<- string) {
	for k := range m {
		sink <- k //jcrlint:allow map-order: downstream set union is order-insensitive
	}
}

// Graph stands in for graph.Graph: AddArc numbers the arcs in call order.
type Graph struct{ arcs [][2]int }

// AddArc adds an arc and returns its ID.
func (g *Graph) AddArc(from, to int, cost, capacity float64) int {
	g.arcs = append(g.arcs, [2]int{from, to})
	return len(g.arcs) - 1
}

// SuperSinkLeak is the old msufp.SplittableOptimum loop: the super-sink
// arcs are numbered in map iteration order, and the arc order decides
// which of several equal-cost flows the solver returns (violation).
func SuperSinkLeak(g *Graph, super int, demand map[int]float64) {
	for t, d := range demand {
		if d > 0 {
			g.AddArc(t, super, 0, d)
		}
	}
}

// GrowEach adds to each graph of a map: the receiver is the iteration's
// own value, so no shared state sees the order (compliant).
func GrowEach(graphs map[string]*Graph) {
	for _, g := range graphs {
		g.AddArc(0, 1, 0, 1)
	}
}
