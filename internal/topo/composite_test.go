package topo

import (
	"testing"

	"jcr/internal/graph"
)

// TestCompositeIdentityIsomorphic is the satellite property test:
// Composite(base, 1) is isomorphic to base node-for-node and arc-for-arc —
// same node count, the identical arc list in the identical order, the same
// role designations, and no gateway links.
func TestCompositeIdentityIsomorphic(t *testing.T) {
	base := Abovenet(7)
	comp, err := Composite(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Blocks != 1 || comp.BlockSize != base.G.NumNodes() {
		t.Fatalf("Blocks=%d BlockSize=%d, want 1 and %d", comp.Blocks, comp.BlockSize, base.G.NumNodes())
	}
	if len(comp.GatewayLinks) != 0 {
		t.Fatalf("K=1 composite has %d gateway links", len(comp.GatewayLinks))
	}
	if comp.G.NumNodes() != base.G.NumNodes() {
		t.Fatalf("node count %d, want %d", comp.G.NumNodes(), base.G.NumNodes())
	}
	if comp.G.NumArcs() != base.G.NumArcs() {
		t.Fatalf("arc count %d, want %d", comp.G.NumArcs(), base.G.NumArcs())
	}
	for id := 0; id < base.G.NumArcs(); id++ {
		if a, b := comp.G.Arc(id), base.G.Arc(id); a != b {
			t.Fatalf("arc %d = %+v, want %+v", id, a, b)
		}
	}
	if comp.Origin != base.Origin {
		t.Errorf("origin %d, want %d", comp.Origin, base.Origin)
	}
	if len(comp.Edges) != len(base.Edges) {
		t.Fatalf("%d edge nodes, want %d", len(comp.Edges), len(base.Edges))
	}
	for i := range base.Edges {
		if comp.Edges[i] != base.Edges[i] {
			t.Errorf("edge node %d = %d, want %d", i, comp.Edges[i], base.Edges[i])
		}
	}
	for v := 0; v < base.G.NumNodes(); v++ {
		if comp.Internal(v) != base.Internal(v) {
			t.Errorf("node %d internal=%v, base says %v", v, comp.Internal(v), base.Internal(v))
		}
	}
}

func TestCompositeStructure(t *testing.T) {
	base := Abovenet(1)
	const k = 4
	comp, err := Composite(base, k)
	if err != nil {
		t.Fatal(err)
	}
	n, m := base.G.NumNodes(), base.G.NumArcs()
	if comp.G.NumNodes() != k*n {
		t.Fatalf("node count %d, want %d", comp.G.NumNodes(), k*n)
	}
	wantArcs := k*m + 2*gatewaysPerSeam*(k-1)
	if comp.G.NumArcs() != wantArcs {
		t.Fatalf("arc count %d, want %d", comp.G.NumArcs(), wantArcs)
	}
	if len(comp.GatewayLinks) != gatewaysPerSeam*(k-1) {
		t.Fatalf("%d gateway links, want %d", len(comp.GatewayLinks), gatewaysPerSeam*(k-1))
	}
	if !comp.G.Connected() {
		t.Fatal("composite is not connected")
	}
	// Each block repeats the base arc list verbatim at its offset.
	for b := 0; b < k; b++ {
		for id := 0; id < m; id++ {
			got := comp.G.Arc(b*m + id)
			want := base.G.Arc(id)
			if got.From != want.From+b*n || got.To != want.To+b*n || got.Cost != want.Cost {
				t.Fatalf("block %d arc %d = %+v, want offset copy of %+v", b, id, got, want)
			}
		}
	}
	// Gateway links cross blocks; block membership follows the
	// block-aligned node IDs.
	for _, gl := range comp.GatewayLinks {
		if gl[0]/n == gl[1]/n {
			t.Errorf("gateway link %v does not cross blocks", gl)
		}
	}
	if len(comp.BlockOrigins) != k {
		t.Fatalf("%d block origins, want %d", len(comp.BlockOrigins), k)
	}
	for b, o := range comp.BlockOrigins {
		if o != base.Origin+b*n {
			t.Errorf("block %d origin %d, want %d", b, o, base.Origin+b*n)
		}
		if comp.Internal(o) {
			t.Errorf("block origin %d reported as internal router", o)
		}
	}
}

func TestCompositeRejectsBadK(t *testing.T) {
	base := Abovenet(1)
	for _, k := range []int{0, -1} {
		if _, err := Composite(base, k); err == nil {
			t.Errorf("Composite accepted k=%d", k)
		}
	}
	if _, err := Composite(nil, 2); err == nil {
		t.Error("Composite accepted a nil base")
	}
	if _, err := Composite(&Network{Name: "empty", G: graph.New(0)}, 2); err == nil {
		t.Error("Composite accepted an empty base")
	}
}

func TestAugmentBlockFeasibility(t *testing.T) {
	base := Abovenet(1)
	comp, err := Composite(base, 3)
	if err != nil {
		t.Fatal(err)
	}
	comp.SetUniformCapacity(10)
	demand := make([]float64, len(comp.Edges))
	for i := range demand {
		demand[i] = 5
	}
	if err := comp.AugmentBlockFeasibility(demand); err != nil {
		t.Fatal(err)
	}
	if comp.Origin != comp.BlockOrigins[0] {
		t.Fatalf("augmentation left Origin at %d", comp.Origin)
	}
	// Some arc in every block gained capacity (the block origin's paths).
	m := base.G.NumArcs()
	for b := 0; b < comp.Blocks; b++ {
		raised := false
		for id := b * m; id < (b+1)*m; id++ {
			if comp.G.Arc(id).Cap > 10 {
				raised = true
				break
			}
		}
		if !raised {
			t.Errorf("block %d has no augmented arc", b)
		}
	}
	if err := comp.AugmentBlockFeasibility(demand[:1]); err == nil {
		t.Error("AugmentBlockFeasibility accepted a short demand vector")
	}
}
