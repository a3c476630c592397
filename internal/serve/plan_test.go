package serve

import (
	"math/rand"
	"strings"
	"testing"

	"jcr/internal/core"
	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// testSpec is the shared small instance: a 4-node tree with the origin
// behind an expensive uplink and two edge caches.
func testSpec(t *testing.T) *placement.Spec {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1, 50, 100)
	g.AddEdge(1, 2, 2, 100)
	g.AddEdge(1, 3, 3, 100)
	return &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0, 1, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 8, 1}, {0, 0, 1, 6}},
	}
}

// solveRNR is the cheap batch pipeline of the serve tests: greedy placement
// plus global nearest-replica serving paths.
func solveRNR(t *testing.T, s *placement.Spec) (*placement.Placement, []placement.ServingPath) {
	t.Helper()
	dist := graph.AllPairs(s.G)
	res, err := placement.Greedy(s, dist)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := placement.GlobalRNRServing(s, res.Placement, dist)
	if err != nil {
		t.Fatal(err)
	}
	return res.Placement, paths
}

// checkRoundTrip asserts that the compiled plan reproduces the batch
// serving paths node for node, arc for arc, in per-request order — the
// bit-for-bit equivalence contract between served and batch routes.
func checkRoundTrip(t *testing.T, s *placement.Spec, paths []placement.ServingPath, p *CompiledPlan) {
	t.Helper()
	if p.NumRoutes() != len(paths) {
		t.Fatalf("plan compiled %d routes from %d serving paths", p.NumRoutes(), len(paths))
	}
	occ := make(map[int]int)
	for k, sp := range paths {
		g := sp.Req.Node*s.NumItems + sp.Req.Item
		j := occ[g]
		occ[g]++
		rs, ok := p.Routes(sp.Req.Item, sp.Req.Node)
		if !ok {
			t.Fatalf("path %d: plan has no routes for request (%d,%d)", k, sp.Req.Item, sp.Req.Node)
		}
		if j >= rs.Len() {
			t.Fatalf("path %d: request (%d,%d) has %d compiled routes, need index %d", k, sp.Req.Item, sp.Req.Node, rs.Len(), j)
		}
		if rs.Rate(j) != sp.Rate {
			t.Fatalf("path %d: rate %v, batch %v", k, rs.Rate(j), sp.Rate)
		}
		wantReplica := sp.Req.Node
		if len(sp.Path.Arcs) > 0 {
			wantReplica = sp.Path.Source(s.G)
		}
		if rs.Replica(j) != wantReplica {
			t.Fatalf("path %d: replica %d, batch %d", k, rs.Replica(j), wantReplica)
		}
		pv := rs.Path(j)
		if pv.Len() != len(sp.Path.Arcs) {
			t.Fatalf("path %d: %d arcs, batch %d", k, pv.Len(), len(sp.Path.Arcs))
		}
		for a := range sp.Path.Arcs {
			if pv.Arc(a) != sp.Path.Arcs[a] {
				t.Fatalf("path %d arc %d: %d, batch %d", k, a, pv.Arc(a), sp.Path.Arcs[a])
			}
		}
		if pv.Len() > 0 {
			nodes := sp.Path.Nodes(s.G)
			for x := 0; x <= pv.Len(); x++ {
				if pv.Node(x) != nodes[x] {
					t.Fatalf("path %d node %d: %d, batch %d", k, x, pv.Node(x), nodes[x])
				}
			}
		}
	}
}

func TestCompileRoundTripSmall(t *testing.T) {
	s := testSpec(t)
	pl, paths := solveRNR(t, s)
	p, err := Compile(s, pl, paths, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.Epoch != 1 || p.CreatedAt != 42 {
		t.Fatalf("plan stamped epoch=%d created=%d", p.Epoch, p.CreatedAt)
	}
	checkRoundTrip(t, s, paths, p)
	// The embedded bitmap mirrors the placement.
	for v := range pl.Stores {
		for i, has := range pl.Stores[v] {
			if p.Stores(v, i) != has {
				t.Fatalf("bitmap disagrees at node %d item %d", v, i)
			}
		}
	}
	// Out-of-coverage lookups report no routes rather than panicking.
	for _, probe := range [][2]int{{-1, 0}, {s.NumItems, 0}, {0, -1}, {0, s.G.NumNodes()}} {
		if _, ok := p.Routes(probe[0], probe[1]); ok {
			t.Fatalf("Routes(%d,%d) claims coverage", probe[0], probe[1])
		}
	}
}

// randomSpec draws a connected graph (ring plus chords) with random demand
// and capacities; the origin pins the whole catalog.
func randomSpec(r *rand.Rand) *placement.Spec {
	n := 4 + r.Intn(6)
	items := 2 + r.Intn(3)
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1+9*r.Float64(), 100)
	}
	for k := r.Intn(2 * n); k > 0; k-- {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+9*r.Float64(), 100)
		}
	}
	cap := make([]float64, n)
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, n)
	}
	for v := 1; v < n; v++ {
		cap[v] = float64(r.Intn(items))
		for i := 0; i < items; i++ {
			if r.Float64() < 0.6 {
				rates[i][v] = r.Float64() * 10
			}
		}
	}
	return &placement.Spec{G: g, NumItems: items, CacheCap: cap, Pinned: []graph.NodeID{0}, Rates: rates}
}

// TestCompileRoundTripRandomized is the round-trip property test: on
// randomized specs, compiled lookups must reproduce the batch serving
// paths exactly, including after a link-fault scenario disables arcs and
// the batch pipeline re-solves on the degraded graph.
func TestCompileRoundTripRandomized(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		r := rng.Derive(991, int64(trial))
		s := randomSpec(r)
		pl, paths := solveRNR(t, s)
		p, err := Compile(s, pl, paths, uint64(trial)+1, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkRoundTrip(t, s, paths, p)

		// Disable a random link for this "hour" and re-run the round trip
		// on the degraded graph the scenario produces.
		links, err := faults.Links(s.G)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sc := &faults.Scenario{
			Name:   "one-link",
			Events: []faults.Event{{Kind: faults.LinkDown, Start: 0, Duration: 1, Link: r.Intn(len(links))}},
		}
		dspec, _, cond, err := sc.Apply(0, s, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !cond.Faulty() {
			t.Fatalf("trial %d: scenario applied no fault", trial)
		}
		dpl, dpaths := solveRNR(t, dspec)
		dp, err := Compile(dspec, dpl, dpaths, uint64(trial)+2, 0)
		if err != nil {
			t.Fatalf("trial %d degraded: %v", trial, err)
		}
		checkRoundTrip(t, dspec, dpaths, dp)
	}
}

// TestCompileRoundTripFractional compiles an IC-FR solution, whose serving
// paths include fractional splits (several routes per request), and checks
// the per-request route order survives compilation.
func TestCompileRoundTripFractional(t *testing.T) {
	s := testSpec(t)
	sol, err := core.Alternating(nil, s, core.AlternatingOptions{Fractional: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(s, sol.Placement, sol.Routing.Paths, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, s, sol.Routing.Paths, p)
}

func TestCompileRejectsBrokenInputs(t *testing.T) {
	s := testSpec(t)
	pl, paths := solveRNR(t, s)

	t.Run("negative rate", func(t *testing.T) {
		bad := append([]placement.ServingPath(nil), paths...)
		bad[0].Rate = -1
		if _, err := Compile(s, pl, bad, 1, 0); err == nil {
			t.Fatal("compiled a negative-rate path")
		}
	})
	t.Run("request out of range", func(t *testing.T) {
		bad := append([]placement.ServingPath(nil), paths...)
		bad[0].Req.Item = s.NumItems
		if _, err := Compile(s, pl, bad, 1, 0); err == nil {
			t.Fatal("compiled an out-of-catalog request")
		}
	})
	t.Run("replica without a copy", func(t *testing.T) {
		// Strip the replica the first path serves from: that path now
		// originates at a node without a copy of its item.
		sp := paths[0]
		replica := sp.Req.Node
		if len(sp.Path.Arcs) > 0 {
			replica = sp.Path.Source(s.G)
		}
		stripped := pl.Clone()
		stripped.Stores[replica][sp.Req.Item] = false
		if _, err := Compile(s, stripped, paths, 1, 0); err == nil {
			t.Fatal("compiled a path served from an empty replica")
		}
	})
	t.Run("placement shape mismatch", func(t *testing.T) {
		bad := &placement.Placement{Stores: pl.Stores[:2]}
		if _, err := Compile(s, bad, paths, 1, 0); err == nil {
			t.Fatal("compiled a placement for the wrong node count")
		}
	})
}

// TestCorruptPlanAlwaysCaught pins the contract the chaos tests rely on:
// every seeded corruption variant is rejected by SelfCheck, on both
// route-bearing and empty plans.
func TestCorruptPlanAlwaysCaught(t *testing.T) {
	s := testSpec(t)
	pl, paths := solveRNR(t, s)
	p, err := Compile(s, pl, paths, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SelfCheck(); err != nil {
		t.Fatal(err)
	}
	for seed := int64(-3); seed < 20; seed++ {
		c := CorruptPlan(p, seed)
		if err := c.SelfCheck(); err == nil {
			t.Fatalf("seed %d: corrupted plan passes SelfCheck", seed)
		}
		// Corruption never touches the original.
		if err := p.SelfCheck(); err != nil {
			t.Fatalf("seed %d: corruption leaked into the source plan: %v", seed, err)
		}
	}
	empty, err := Compile(s, pl, nil, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 4; seed++ {
		if err := CorruptPlan(empty, seed).SelfCheck(); err == nil {
			t.Fatalf("seed %d: corrupted empty plan passes SelfCheck", seed)
		}
	}
}

func TestSelfCheckMessages(t *testing.T) {
	s := testSpec(t)
	pl, paths := solveRNR(t, s)
	p, err := Compile(s, pl, paths, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.routeRate[0] = -1
	err = c.SelfCheck()
	if err == nil || !strings.Contains(err.Error(), "invalid rate") {
		t.Fatalf("negative rate error = %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	s := testSpec(t)
	pl, paths := solveRNR(t, s)
	p, err := Compile(s, pl, paths, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.routeRate[0] = -1
	c.groupOff[0] = 99
	if err := p.SelfCheck(); err != nil {
		t.Fatalf("mutating the clone reached the original: %v", err)
	}
}
