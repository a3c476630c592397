package graph

import (
	"math"
	"math/rand"
	"testing"
)

func TestAddArcAndDegrees(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1, 10)
	g.AddArc(1, 2, 2, 10)
	g.AddArc(2, 0, 3, 10)
	g.AddEdge(2, 3, 4, 5)

	if got := g.NumNodes(); got != 4 {
		t.Fatalf("NumNodes = %d, want 4", got)
	}
	if got := g.NumArcs(); got != 5 {
		t.Fatalf("NumArcs = %d, want 5", got)
	}
	if got := g.OutDegree(2); got != 2 {
		t.Errorf("OutDegree(2) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := g.UndirectedDegree(2); got != 3 {
		t.Errorf("UndirectedDegree(2) = %d, want 3", got)
	}
	if got := g.UndirectedDegree(3); got != 1 {
		t.Errorf("UndirectedDegree(3) = %d, want 1", got)
	}
}

func TestAddArcPanics(t *testing.T) {
	g := New(2)
	assertPanic(t, "out-of-range endpoint", func() { g.AddArc(0, 5, 1, 1) })
	assertPanic(t, "negative cost", func() { g.AddArc(0, 1, -1, 1) })
}

func assertPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestConnected(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1, 1)
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
	g.AddArc(2, 1, 1, 1) // reverse direction still counts (undirected check)
	if !g.Connected() {
		t.Error("weakly connected graph reported disconnected")
	}
}

func TestNodesByDegree(t *testing.T) {
	// Star: center 0 with leaves 1..3.
	g := New(4)
	for v := 1; v < 4; v++ {
		g.AddEdge(0, v, 1, 1)
	}
	order := g.NodesByDegree()
	if order[len(order)-1] != 0 {
		t.Errorf("center should have highest degree, order = %v", order)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("ties should break by node ID, order = %v", order)
	}
}

func TestDijkstraSimple(t *testing.T) {
	// 0 -> 1 -> 3 costs 1+1=2; direct 0 -> 3 costs 5.
	g := New(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 3, 1, 1)
	g.AddArc(0, 3, 5, 1)
	g.AddArc(0, 2, 2, 1)

	tree := TreeOf(g, 0)
	if tree.Dist[3] != 2 {
		t.Errorf("Dist[3] = %v, want 2", tree.Dist[3])
	}
	p, ok := tree.PathTo(g, 3)
	if !ok {
		t.Fatal("node 3 unreachable")
	}
	if err := p.Validate(g, 0, 3); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if p.Cost(g) != 2 || p.Len() != 2 {
		t.Errorf("path cost/len = %v/%d, want 2/2", p.Cost(g), p.Len())
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1, 1)
	tree := TreeOf(g, 0)
	if !math.IsInf(tree.Dist[2], 1) {
		t.Errorf("Dist[2] = %v, want +Inf", tree.Dist[2])
	}
	if _, ok := tree.PathTo(g, 2); ok {
		t.Error("PathTo returned ok for unreachable node")
	}
}

// banTree runs the masked kernel the way Yen's searches do, without a
// goal: the full tree of g from src with the given arcs left out and the
// given nodes banned through their in-arcs.
func banTree(g *Graph, src NodeID, banArc, banNode []bool) ShortestTree {
	c := g.view()
	mask := make([]uint64, (g.NumArcs()+63)/64)
	for id, b := range banArc {
		if b {
			maskSetBit(mask, id)
		}
	}
	for v, b := range banNode {
		for j := c.revHead[v]; b && j < c.revHead[v+1]; j++ {
			maskSetBit(mask, int(c.revArc[j]))
		}
	}
	s := acquireScratch(c.n)
	defer releaseScratch(s)
	dijkstraCSRMask(c, src, -1, s, mask)
	return s.extractTree(src, c.n)
}

func TestDijkstraSkips(t *testing.T) {
	g := New(3)
	cheap := g.AddArc(0, 2, 1, 1)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 1, 1)

	banArc := make([]bool, g.NumArcs())
	banArc[cheap] = true
	tree := banTree(g, 0, banArc, make([]bool, 3))
	if tree.Dist[2] != 2 {
		t.Errorf("with cheap arc skipped, Dist[2] = %v, want 2", tree.Dist[2])
	}
	tree = banTree(g, 0, make([]bool, g.NumArcs()), []bool{false, true, false})
	if tree.Dist[2] != 1 {
		t.Errorf("with node 1 skipped, Dist[2] = %v, want 1", tree.Dist[2])
	}
}

// bellmanFord is an independent reference implementation for cross-checks.
func bellmanFord(g *Graph, src NodeID) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n; iter++ {
		for id := 0; id < g.NumArcs(); id++ {
			a := g.Arc(id)
			if nd := dist[a.From] + a.Cost; nd < dist[a.To] {
				dist[a.To] = nd
			}
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFordRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		g := New(n)
		m := n + rng.Intn(3*n)
		for e := 0; e < m; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddArc(u, v, float64(1+rng.Intn(20)), 1)
		}
		src := rng.Intn(n)
		want := bellmanFord(g, src)
		got := TreeOf(g, src).Dist
		for v := range want {
			if want[v] != got[v] {
				t.Fatalf("trial %d: Dist[%d] = %v, want %v", trial, v, got[v], want[v])
			}
		}
	}
}

func TestAllPairsAndMaxFinite(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 2, 1)
	g.AddArc(2, 0, 4, 1)
	d := AllPairs(g)
	if d[0][2] != 3 {
		t.Errorf("d[0][2] = %v, want 3", d[0][2])
	}
	if d[2][1] != 5 {
		t.Errorf("d[2][1] = %v, want 5", d[2][1])
	}
	if got := MaxFinite(d); got != 6 {
		t.Errorf("MaxFinite = %v, want 6 (the 1->2->0 cost)", got)
	}
}

func TestPathValidateRejects(t *testing.T) {
	g := New(4)
	a01 := g.AddArc(0, 1, 1, 1)
	a12 := g.AddArc(1, 2, 1, 1)
	a23 := g.AddArc(2, 3, 1, 1)
	a30 := g.AddArc(3, 0, 1, 1)

	good := Path{Arcs: []ArcID{a01, a12, a23}}
	if err := good.Validate(g, 0, 3); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
	wrongSrc := good
	if err := wrongSrc.Validate(g, 1, 3); err == nil {
		t.Error("wrong source accepted")
	}
	cycle := Path{Arcs: []ArcID{a01, a12, a23, a30}}
	if err := cycle.Validate(g, 0, 0); err == nil {
		t.Error("cyclic path accepted")
	}
	gap := Path{Arcs: []ArcID{a01, a23}}
	if err := gap.Validate(g, 0, 3); err == nil {
		t.Error("non-contiguous path accepted")
	}
	empty := Path{}
	if err := empty.Validate(g, 2, 2); err != nil {
		t.Errorf("empty self-path rejected: %v", err)
	}
	if err := empty.Validate(g, 2, 3); err == nil {
		t.Error("empty path with src != dst accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New(2)
	id := g.AddArc(0, 1, 1, 1)
	c := g.Clone()
	c.SetArcCost(id, 9)
	c.AddNode()
	if g.Arc(id).Cost != 1 {
		t.Error("clone mutation leaked into original cost")
	}
	if g.NumNodes() != 2 {
		t.Error("clone mutation leaked into original node count")
	}
}
