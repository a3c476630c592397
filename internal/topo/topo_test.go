package topo

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"jcr/internal/graph"
)

func TestGenerateSizes(t *testing.T) {
	cases := []struct {
		net          *Network
		nodes, links int
		edges        int
	}{
		{Abovenet(1), 23, 31, 9},
		{Abvt(1), 23, 31, 5},
		{Tinet(1), 53, 89, 5},
		{Deltacom(1), 113, 161, 5},
	}
	for _, c := range cases {
		if got := c.net.G.NumNodes(); got != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.net.Name, got, c.nodes)
		}
		if got := c.net.G.NumArcs(); got != 2*c.links {
			t.Errorf("%s: %d arcs, want %d", c.net.Name, got, 2*c.links)
		}
		if got := len(c.net.Edges); got != c.edges {
			t.Errorf("%s: %d edge nodes, want %d", c.net.Name, got, c.edges)
		}
		if !c.net.G.Connected() {
			t.Errorf("%s: not connected", c.net.Name)
		}
	}
}

func TestOriginIsLowestDegree(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := Abovenet(seed)
		od := n.G.UndirectedDegree(n.Origin)
		for v := 0; v < n.G.NumNodes(); v++ {
			if n.G.UndirectedDegree(v) < od {
				t.Fatalf("seed %d: node %d has degree %d < origin's %d", seed, v, n.G.UndirectedDegree(v), od)
			}
		}
		if od != 1 {
			t.Errorf("seed %d: origin degree = %d, want 1 (paper designates a degree-1 node)", seed, od)
		}
		// Edge nodes have low degree (<= 3 per Section 6).
		for _, e := range n.Edges {
			if d := n.G.UndirectedDegree(e); d > 3 {
				t.Errorf("seed %d: edge node %d has degree %d > 3", seed, e, d)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Abovenet(42)
	b := Abovenet(42)
	if a.Origin != b.Origin || len(a.Edges) != len(b.Edges) || a.G.NumArcs() != b.G.NumArcs() {
		t.Fatal("same seed produced different networks")
	}
	for id := 0; id < a.G.NumArcs(); id++ {
		if a.G.Arc(id) != b.G.Arc(id) {
			t.Fatal("same seed produced different arcs")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate("x", 2, 1, 1, 1); err == nil {
		t.Error("2 nodes accepted")
	}
	if _, err := Generate("x", 5, 3, 1, 1); err == nil {
		t.Error("too few links accepted")
	}
	if _, err := Generate("x", 5, 11, 1, 1); err == nil {
		t.Error("too many links accepted")
	}
}

func TestAssignCosts(t *testing.T) {
	n := Abovenet(3)
	n.AssignCosts(rand.New(rand.NewSource(1)), 100, 200, 1, 20)
	for id := 0; id < n.G.NumArcs(); id++ {
		a := n.G.Arc(id)
		touchesOrigin := a.From == n.Origin || a.To == n.Origin
		if touchesOrigin {
			if a.Cost < 100 || a.Cost > 200 {
				t.Errorf("origin link cost %v outside [100,200]", a.Cost)
			}
		} else if a.Cost < 1 || a.Cost > 20 {
			t.Errorf("link cost %v outside [1,20]", a.Cost)
		}
	}
	// Symmetric costs on opposite arcs.
	for id := 0; id < n.G.NumArcs(); id++ {
		a := n.G.Arc(id)
		for id2 := 0; id2 < n.G.NumArcs(); id2++ {
			b := n.G.Arc(id2)
			if b.From == a.To && b.To == a.From && b.Cost != a.Cost {
				t.Fatalf("asymmetric costs on link %d-%d: %v vs %v", a.From, a.To, a.Cost, b.Cost)
			}
		}
	}
}

func TestCapacityHelpers(t *testing.T) {
	n := Abovenet(5)
	n.SetUniformCapacity(7)
	for id := 0; id < n.G.NumArcs(); id++ {
		if n.G.Arc(id).Cap != 7 {
			t.Fatalf("arc %d cap = %v, want 7", id, n.G.Arc(id).Cap)
		}
	}
	n.SetUnlimitedCapacity()
	for id := 0; id < n.G.NumArcs(); id++ {
		if !math.IsInf(n.G.Arc(id).Cap, 1) {
			t.Fatalf("arc %d cap = %v, want +Inf", id, n.G.Arc(id).Cap)
		}
	}
}

func TestAugmentFeasibility(t *testing.T) {
	n := Abovenet(7)
	n.AssignCosts(rand.New(rand.NewSource(2)), 100, 200, 1, 20)
	n.SetUniformCapacity(10)
	demand := make([]float64, len(n.Edges))
	for k := range demand {
		demand[k] = float64(100 * (k + 1))
	}
	if err := n.AugmentFeasibility(demand); err != nil {
		t.Fatal(err)
	}
	// Every arc on each origin->edge minimum-hop path got its capacity
	// raised by that edge's demand (paths may share arcs, so the lower
	// bound below is per-edge, not cumulative).
	unit := n.G.Clone()
	for id := 0; id < unit.NumArcs(); id++ {
		unit.SetArcCost(id, 1)
	}
	tree := graph.TreeOf(unit, n.Origin)
	for k, e := range n.Edges {
		p, ok := tree.PathTo(n.G, e)
		if !ok {
			t.Fatalf("edge %d unreachable", e)
		}
		for _, id := range p.Arcs {
			if n.G.Arc(id).Cap < 10+demand[k] {
				t.Errorf("arc %d on path to edge %d not augmented: cap %v", id, e, n.G.Arc(id).Cap)
			}
		}
	}

	if err := n.AugmentFeasibility([]float64{1}); err == nil {
		t.Error("wrong demand length accepted")
	}
}

func TestParseEdgeList(t *testing.T) {
	src := `
# tiny triangle plus a stub
0 1 2.5 100
1 2 3.0
0 2
2 3 1 50
`
	n, err := ParseEdgeList(strings.NewReader(src), "tiny", 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.G.NumNodes() != 4 || n.G.NumArcs() != 8 {
		t.Fatalf("parsed %d nodes %d arcs, want 4 and 8", n.G.NumNodes(), n.G.NumArcs())
	}
	if n.Origin != 3 {
		t.Errorf("origin = %d, want the degree-1 node 3", n.Origin)
	}
	a := n.G.Arc(0)
	if a.Cost != 2.5 || a.Cap != 100 {
		t.Errorf("first arc = %+v, want cost 2.5 cap 100", a)
	}
	if !math.IsInf(n.G.Arc(4).Cap, 1) {
		t.Errorf("default capacity should be unlimited, got %v", n.G.Arc(4).Cap)
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for name, src := range map[string]string{
		"empty":        "",
		"one field":    "0",
		"bad node":     "a 1",
		"bad node 2":   "0 b",
		"self loop":    "0 0",
		"negative":     "-1 2",
		"bad cost":     "0 1 x",
		"NaN cost":     "0 1 NaN",
		"inf cost":     "0 1 inf",
		"+Inf cost":    "0 1 +Inf",
		"bad capacity": "0 1 1 x",
		"disconnected": "0 1\n2 3",
	} {
		if _, err := ParseEdgeList(strings.NewReader(src), "x", 1); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestInternal(t *testing.T) {
	n := Abovenet(9)
	if n.Internal(n.Origin) {
		t.Error("origin reported internal")
	}
	for _, e := range n.Edges {
		if n.Internal(e) {
			t.Errorf("edge node %d reported internal", e)
		}
	}
	count := 0
	for v := 0; v < n.G.NumNodes(); v++ {
		if n.Internal(v) {
			count++
		}
	}
	if count != n.G.NumNodes()-1-len(n.Edges) {
		t.Errorf("internal count = %d, want %d", count, n.G.NumNodes()-1-len(n.Edges))
	}
}

// TestInternalLiteralAndIndexedAgree pins the two Internal paths to each
// other: a literal-constructed Network (no role index) must answer exactly
// like the same network after IndexRoles, and re-indexing after a role
// change must track the new designation.
func TestInternalLiteralAndIndexedAgree(t *testing.T) {
	gen := Abovenet(9)
	lit := &Network{Name: gen.Name, G: gen.G, Origin: gen.Origin, Edges: gen.Edges}
	for v := 0; v < gen.G.NumNodes(); v++ {
		if lit.Internal(v) != gen.Internal(v) {
			t.Errorf("node %d: literal says %v, indexed says %v", v, lit.Internal(v), gen.Internal(v))
		}
	}
	// Re-designate: promote an internal node to edge node and re-index.
	var promoted graph.NodeID = -1
	for v := 0; v < gen.G.NumNodes(); v++ {
		if gen.Internal(v) {
			promoted = v
			break
		}
	}
	if promoted < 0 {
		t.Fatal("no internal node to promote")
	}
	gen.Edges = append(gen.Edges, promoted)
	gen.IndexRoles()
	if gen.Internal(promoted) {
		t.Errorf("node %d still internal after promotion and re-index", promoted)
	}
}
