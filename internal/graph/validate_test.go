package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refValidate is Path.Validate as it was before the allocation-free walk:
// it materializes the node sequence and finds revisits with a map. It is
// the oracle of TestValidateMatchesReference and FuzzPathValidate.
func refValidate(p Path, g *Graph, src, dst NodeID) error {
	if len(p.Arcs) == 0 {
		if src != dst {
			return fmt.Errorf("graph: empty path but src %d != dst %d", src, dst)
		}
		return nil
	}
	nodes := p.Nodes(g)
	if nodes[0] != src {
		return fmt.Errorf("graph: path starts at %d, want %d", nodes[0], src)
	}
	if nodes[len(nodes)-1] != dst {
		return fmt.Errorf("graph: path ends at %d, want %d", nodes[len(nodes)-1], dst)
	}
	for k := 1; k < len(p.Arcs); k++ {
		if g.Arc(p.Arcs[k]).From != g.Arc(p.Arcs[k-1]).To {
			return fmt.Errorf("graph: path not contiguous at hop %d", k)
		}
	}
	seen := make(map[NodeID]struct{}, len(nodes))
	for _, v := range nodes {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("graph: path revisits node %d", v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// sameVerdict compares Validate with refValidate on one path: both nil or
// both the same error text.
func sameVerdict(g *Graph, p Path, src, dst NodeID) error {
	got, want := p.Validate(g, src, dst), refValidate(p, g, src, dst)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("path %v from %d to %d: error %v, reference %v", p.Arcs, src, dst, got, want)
	}
	return nil
}

// denseGraph builds n nodes whose arcs (parallel arcs and self-loops
// included) all run among the first k nodes, so random walks revisit
// nodes often.
func denseGraph(r *rand.Rand, n, k, arcs int) *Graph {
	g := New(n)
	for e := 0; e < arcs; e++ {
		g.AddArc(r.Intn(k), r.Intn(k), 1, 1)
	}
	return g
}

// randomPath draws one path of the kinds the differential test mixes:
// a walk along out-arcs (revisits likely), a random arc list (breaks in
// contiguity likely), or a walk with one arc swapped for a random one.
func randomPath(r *rand.Rand, g *Graph, k int) Path {
	m := g.NumArcs()
	var arcs []ArcID
	switch kind := r.Intn(3); kind {
	case 0, 2:
		v := r.Intn(k)
		for j := 0; j < 1+r.Intn(9); j++ {
			out := g.Out(v)
			if len(out) == 0 {
				break
			}
			id := out[r.Intn(len(out))]
			arcs = append(arcs, id)
			v = g.Arc(id).To
		}
		if kind == 2 && len(arcs) > 0 {
			arcs[r.Intn(len(arcs))] = r.Intn(m)
		}
	default:
		for j := 0; j < r.Intn(6); j++ {
			arcs = append(arcs, r.Intn(m))
		}
	}
	return Path{Arcs: arcs}
}

// verdictWords tells Validate's errors apart.
var verdictWords = []string{"empty", "starts", "ends", "contiguous", "revisits"}

// TestValidateMatchesReference checks Validate against the map-based
// reference on random, tie-heavy and malformed paths (cycles, breaks in
// contiguity, wrong ends, empty paths). Every verdict and error text must
// agree, and every kind of verdict must occur.
func TestValidateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	verdicts := map[string]int{}
	for trial := 0; trial < 3000; trial++ {
		n := 2 + r.Intn(8)
		k := min(n, 2+r.Intn(8))
		g := denseGraph(r, n, k, 1+r.Intn(3*k))
		p := randomPath(r, g, k)
		src, dst := p.Source(g), p.Dest(g)
		switch r.Intn(4) {
		case 0:
			src = r.Intn(k)
		case 1:
			dst = r.Intn(k)
		}
		if len(p.Arcs) == 0 {
			src, dst = r.Intn(k), r.Intn(k)
		}
		if err := sameVerdict(g, p, src, dst); err != nil {
			t.Fatalf("trial %d (%d nodes): %v", trial, n, err)
		}
		verdict := "ok"
		if err := refValidate(p, g, src, dst); err != nil {
			for _, v := range verdictWords {
				if strings.Contains(err.Error(), v) {
					verdict = v
				}
			}
		}
		verdicts[verdict]++
	}
	t.Logf("verdicts %v", verdicts)
	for _, v := range append(verdictWords, "ok") {
		if verdicts[v] == 0 {
			t.Errorf("no path drew the %q verdict", v)
		}
	}
}

// TestValidateAllocatesNothing pins Validate's success path at zero
// allocations.
func TestValidateAllocatesNothing(t *testing.T) {
	g := New(6)
	var p Path
	for v := 0; v+1 < 6; v++ {
		p.Arcs = append(p.Arcs, g.AddArc(v, v+1, 1, 1))
	}
	if err := p.Validate(g, 0, 5); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { _ = p.Validate(g, 0, 5) }); a != 0 {
		t.Errorf("Validate allocates %v times per call", a)
	}
}

// fuzzGraph is FuzzPathValidate's fixed small multigraph: a 4-cycle with a
// chord, a parallel arc and a self-loop.
func fuzzGraph() *Graph {
	g := New(5)
	for _, a := range [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 3}} {
		g.AddArc(a[0], a[1], 1, 1)
	}
	return g
}

// FuzzPathValidate decodes bytes into a path on fuzzGraph (src, dst, then
// arc IDs) and checks Validate against the map-based reference.
func FuzzPathValidate(f *testing.F) {
	g := fuzzGraph()
	for _, seed := range [][]byte{
		{0, 3, 0, 1, 2},    // valid
		{0, 0, 0, 1, 2, 3}, // closes a cycle
		{0, 3, 0, 2},       // not contiguous
		{1, 3, 0, 1, 2},    // wrong start
		{0, 2, 0, 1, 2},    // wrong end
		{2, 2},             // empty, same ends
		{2, 3},             // empty, different ends
		{1, 2, 5, 6},       // parallel arc, then a self-loop
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		n, m := g.NumNodes(), g.NumArcs()
		src, dst := int(b[0])%n, int(b[1])%n
		var p Path
		for _, c := range b[2:] {
			p.Arcs = append(p.Arcs, int(c)%m)
		}
		if err := sameVerdict(g, p, src, dst); err != nil {
			t.Fatal(err)
		}
	})
}
