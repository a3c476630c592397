package graph

import (
	"math/rand"
	"sort"
	"testing"
)

func TestKShortestPathsDiamond(t *testing.T) {
	// Classic diamond: 0->1->3 (cost 2), 0->2->3 (cost 3), 0->3 (cost 4).
	g := New(4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 3, 1, 1)
	g.AddArc(0, 2, 1, 1)
	g.AddArc(2, 3, 2, 1)
	g.AddArc(0, 3, 4, 1)

	paths := KShortestPaths(g, 0, 3, 5)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	wantCosts := []float64{2, 3, 4}
	for i, p := range paths {
		if err := p.Validate(g, 0, 3); err != nil {
			t.Errorf("path %d invalid: %v", i, err)
		}
		if got := p.Cost(g); got != wantCosts[i] {
			t.Errorf("path %d cost = %v, want %v", i, got, wantCosts[i])
		}
	}
}

func TestKShortestPathsLimits(t *testing.T) {
	g := New(3)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 2, 1, 1)
	if got := KShortestPaths(g, 0, 2, 10); len(got) != 1 {
		t.Errorf("single-path graph: got %d paths, want 1", len(got))
	}
	if got := KShortestPaths(g, 2, 0, 3); got != nil {
		t.Errorf("unreachable: got %v, want nil", got)
	}
	if got := KShortestPaths(g, 0, 2, 0); got != nil {
		t.Errorf("k=0: got %v, want nil", got)
	}
	self := KShortestPaths(g, 1, 1, 2)
	if len(self) != 1 || self[0].Len() != 0 {
		t.Errorf("src==dst: got %v, want one empty path", self)
	}
}

// enumerateSimplePaths lists all simple paths from src to dst by DFS, for
// cross-checking Yen's algorithm on small graphs.
func enumerateSimplePaths(g *Graph, src, dst NodeID) []Path {
	var out []Path
	onPath := make([]bool, g.NumNodes())
	var arcs []ArcID
	var dfs func(v NodeID)
	dfs = func(v NodeID) {
		if v == dst {
			out = append(out, Path{Arcs: append([]ArcID(nil), arcs...)})
			return
		}
		onPath[v] = true
		for _, id := range g.Out(v) {
			w := g.Arc(id).To
			if onPath[w] || w == src {
				continue
			}
			arcs = append(arcs, id)
			dfs(w)
			arcs = arcs[:len(arcs)-1]
		}
		onPath[v] = false
	}
	if src != dst {
		dfs(src)
	}
	return out
}

func TestKShortestMatchesEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(5)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.45 {
					g.AddArc(u, v, float64(1+rng.Intn(9)), 1)
				}
			}
		}
		src, dst := 0, n-1
		all := enumerateSimplePaths(g, src, dst)
		costs := make([]float64, len(all))
		for i, p := range all {
			costs[i] = p.Cost(g)
		}
		sort.Float64s(costs)

		k := 4
		got := KShortestPaths(g, src, dst, k)
		wantLen := k
		if len(all) < k {
			wantLen = len(all)
		}
		if len(got) != wantLen {
			t.Fatalf("trial %d: got %d paths, want %d", trial, len(got), wantLen)
		}
		for i, p := range got {
			if err := p.Validate(g, src, dst); err != nil {
				t.Fatalf("trial %d: path %d invalid: %v", trial, i, err)
			}
			if p.Cost(g) != costs[i] {
				t.Fatalf("trial %d: path %d cost %v, want %v", trial, i, p.Cost(g), costs[i])
			}
		}
	}
}

func TestAuxiliaryGraphConstruction(t *testing.T) {
	g := New(4)
	g.AddArc(0, 1, 1, 5)
	g.AddArc(1, 2, 1, 5)
	g.AddArc(2, 3, 1, 5)

	aux := NewAuxiliary(g, [][]NodeID{{0, 2}})
	if aux.G.NumNodes() != 5 {
		t.Fatalf("aux nodes = %d, want 5", aux.G.NumNodes())
	}
	vs := aux.VirtualSource[0]
	if got := aux.G.OutDegree(vs); got != 2 {
		t.Errorf("virtual source out-degree = %d, want 2", got)
	}
	for _, id := range aux.G.Out(vs) {
		a := aux.G.Arc(id)
		if a.Cost != 0 || a.Cap != Unlimited {
			t.Errorf("virtual arc %v should have zero cost, unlimited cap", a)
		}
		if !aux.IsVirtualArc(id) {
			t.Errorf("arc %d not recognized as virtual", id)
		}
	}
	// Route from the virtual source to node 3: best real source is 2.
	tree := TreeOf(aux.G, vs)
	p, ok := tree.PathTo(aux.G, 3)
	if !ok {
		t.Fatal("node 3 unreachable from virtual source")
	}
	base, src := aux.StripVirtual(p)
	if src != 2 {
		t.Errorf("selected source = %d, want 2", src)
	}
	if err := base.Validate(g, 2, 3); err != nil {
		t.Errorf("stripped path invalid in base graph: %v", err)
	}
}

func TestAuxiliaryStripNonVirtual(t *testing.T) {
	g := New(2)
	a := g.AddArc(0, 1, 1, 1)
	aux := NewAuxiliary(g, [][]NodeID{{0}})
	p := Path{Arcs: []ArcID{a}}
	base, src := aux.StripVirtual(p)
	if src != 0 || base.Len() != 1 {
		t.Errorf("StripVirtual(%v) = (%v, %d), want unchanged with src 0", p, base, src)
	}
	empty, src := aux.StripVirtual(Path{})
	if src != -1 || empty.Len() != 0 {
		t.Errorf("StripVirtual(empty) = (%v, %d)", empty, src)
	}
}

// TestPathSetDedup pins the non-allocating dedup set: repeats are rejected,
// distinct sequences (including prefixes, which share a hash prefix walk)
// are kept, and the empty sequence is a valid member.
func TestPathSetDedup(t *testing.T) {
	var s pathSet
	seqs := [][]ArcID{
		{},
		{1},
		{1, 2},
		{2, 1},
		{1, 2, 3},
	}
	for i, q := range seqs {
		if !s.add(q) {
			t.Errorf("sequence %d rejected on first insert", i)
		}
	}
	for i, q := range seqs {
		if s.add(append([]ArcID(nil), q...)) {
			t.Errorf("sequence %d accepted twice", i)
		}
	}
}

// benchYenGraph is a grid with parallel arcs, dense in distinct simple
// paths, so Yen's dedup set does real work.
func benchYenGraph() *Graph {
	const side = 6
	g := New(side * side)
	at := func(r, c int) NodeID { return r*side + c }
	rng := rand.New(rand.NewSource(11))
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(at(r, c), at(r, c+1), 1+rng.Float64(), Unlimited)
			}
			if r+1 < side {
				g.AddEdge(at(r, c), at(r+1, c), 1+rng.Float64(), Unlimited)
			}
		}
	}
	return g
}

func BenchmarkKShortestPaths(b *testing.B) {
	g := benchYenGraph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := KShortestPaths(g, 0, g.NumNodes()-1, 25); len(got) != 25 {
			b.Fatalf("got %d paths", len(got))
		}
	}
}
