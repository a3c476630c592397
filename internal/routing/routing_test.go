package routing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// twoItemSpec: node 0 is the pinned origin; node 1 requests items 0 and 1.
// Two parallel links 0->1: cheap (cost 1) with capacity cap, expensive
// (cost 5) with ample capacity.
func twoItemSpec(cheapCap float64) *placement.Spec {
	g := graph.New(2)
	g.AddArc(0, 1, 1, cheapCap)
	g.AddArc(0, 1, 5, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 1}, {0, 1}},
	}
	return s
}

func TestRouteIndependent(t *testing.T) {
	s := twoItemSpec(10) // plenty of cheap capacity
	pl := s.NewPlacement()
	res, err := Route(nil, s, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodIndependent {
		t.Errorf("method = %q, want independent", res.Method)
	}
	if math.Abs(res.Cost-2) > 1e-9 { // both items on the cheap link
		t.Errorf("cost = %v, want 2", res.Cost)
	}
	if res.MaxUtilization > 1+1e-9 {
		t.Errorf("congestion %v > 1 with ample capacity", res.MaxUtilization)
	}
}

func TestRouteLPUnderContention(t *testing.T) {
	s := twoItemSpec(1) // cheap link fits only one item's unit of flow
	pl := s.NewPlacement()
	res, err := Route(nil, s, pl, Options{Fractional: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodLP {
		t.Errorf("method = %q, want lp", res.Method)
	}
	// Optimal split: 1 unit cheap (cost 1) + 1 unit expensive (cost 5).
	if math.Abs(res.Cost-6) > 1e-6 {
		t.Errorf("cost = %v, want 6", res.Cost)
	}
	if res.MaxUtilization > 1+1e-6 {
		t.Errorf("LP solution violates capacity: %v", res.MaxUtilization)
	}
	// Fractional rates per request sum to the demand.
	perReq := map[placement.Request]float64{}
	for _, sp := range res.Paths {
		perReq[sp.Req] += sp.Rate
	}
	for rq, sum := range perReq {
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("request %+v served %v, want 1", rq, sum)
		}
	}
}

func TestRouteSequentialFallback(t *testing.T) {
	s := twoItemSpec(1)
	pl := s.NewPlacement()
	res, err := Route(nil, s, pl, Options{LPMaxVars: 1}) // forbid the LP
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != MethodSequential {
		t.Errorf("method = %q, want sequential", res.Method)
	}
	// Sequential should also find the capacity-respecting split here.
	if math.Abs(res.Cost-6) > 1e-6 {
		t.Errorf("cost = %v, want 6", res.Cost)
	}
}

func TestRouteIntegralOnePathPerRequest(t *testing.T) {
	s := twoItemSpec(1)
	pl := s.NewPlacement()
	res, err := Route(nil, s, pl, Options{Rng: rand.New(rand.NewSource(9))})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[placement.Request]int{}
	for _, sp := range res.Paths {
		seen[sp.Req]++
		if math.Abs(sp.Rate-1) > 1e-9 {
			t.Errorf("integral path rate = %v, want full demand 1", sp.Rate)
		}
		if err := sp.Path.Validate(s.G, 0, sp.Req.Node); err != nil {
			t.Errorf("bad path for %+v: %v", sp.Req, err)
		}
	}
	for rq, n := range seen {
		if n != 1 {
			t.Errorf("request %+v has %d paths, want 1", rq, n)
		}
	}
	if len(seen) != 2 {
		t.Errorf("%d requests served, want 2", len(seen))
	}
}

func TestRouteUsesNearestReplica(t *testing.T) {
	// Line 0 - 1 - 2; origin 0 pinned, replica of item 0 at node 1,
	// requester at node 2: should be served from node 1, not the origin.
	g := graph.New(3)
	g.AddEdge(0, 1, 10, 100)
	g.AddEdge(1, 2, 1, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 1, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 0, 2}},
	}
	pl := s.NewPlacement()
	pl.Stores[1][0] = true
	res, err := Route(nil, s, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Cost-2*1) > 1e-9 {
		t.Errorf("cost = %v, want 2 (served from node 1)", res.Cost)
	}
}

func TestRouteSelfServe(t *testing.T) {
	// Requester caches the item itself: zero cost, empty path.
	g := graph.New(2)
	g.AddEdge(0, 1, 3, 100)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 5}},
	}
	pl := s.NewPlacement()
	pl.Stores[1][0] = true
	res, err := Route(nil, s, pl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("cost = %v, want 0", res.Cost)
	}
}

func TestRouteNoReplicaError(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0},
		Rates:    [][]float64{{0, 1}},
	}
	pl := s.NewPlacement() // nothing pinned, nothing cached
	if _, err := Route(nil, s, pl, Options{}); err == nil {
		t.Error("expected error for item with no replicas")
	}
}

func TestRouteRandomizedConsistency(t *testing.T) {
	// Integral routing over random instances: each request gets exactly
	// one valid path starting at a replica of its item.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(5)
		g := graph.New(n)
		for v := 0; v+1 < n; v++ {
			g.AddEdge(v, v+1, float64(1+rng.Intn(9)), 3+10*rng.Float64())
		}
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, float64(1+rng.Intn(9)), 3+10*rng.Float64())
			}
		}
		nItems := 2 + rng.Intn(3)
		s := &placement.Spec{
			G:        g,
			NumItems: nItems,
			CacheCap: make([]float64, n),
			Pinned:   []graph.NodeID{0},
			Rates:    make([][]float64, nItems),
		}
		pl := s.NewPlacement()
		for i := range s.Rates {
			s.Rates[i] = make([]float64, n)
			for v := 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					s.Rates[i][v] = 0.5 + 2*rng.Float64()
				}
			}
			// A random extra replica.
			v := 1 + rng.Intn(n-1)
			pl.Stores[v][i] = true
		}
		res, err := Route(nil, s, pl, Options{Rng: rng})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		count := map[placement.Request]int{}
		for _, sp := range res.Paths {
			count[sp.Req]++
			if sp.Path.Len() == 0 {
				// Self-served: requester must hold a replica.
				if !pl.Stores[sp.Req.Node][sp.Req.Item] {
					t.Fatalf("trial %d: empty path but no local replica for %+v", trial, sp.Req)
				}
				continue
			}
			head := sp.Path.Source(s.G)
			if !pl.Stores[head][sp.Req.Item] {
				t.Fatalf("trial %d: path for %+v starts at %d, which lacks the item", trial, sp.Req, head)
			}
			if sp.Path.Dest(s.G) != sp.Req.Node {
				t.Fatalf("trial %d: path for %+v ends at %d", trial, sp.Req, sp.Path.Dest(s.G))
			}
		}
		if len(count) != len(s.Requests()) {
			t.Fatalf("trial %d: served %d of %d requests", trial, len(count), len(s.Requests()))
		}
	}
}

// The engine-backed reach filter must mark exactly the nodes the
// structural search does — on intact graphs and after link removals,
// through both a threaded Reuse handle and the nil fallback.
func TestEngineReachMatchesStructuralSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(10)
		g := graph.New(n)
		for e := 0; e < n+rng.Intn(2*n); e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddArc(u, v, float64(1+rng.Intn(3)), 1)
			}
		}
		roots := []graph.NodeID{rng.Intn(n), rng.Intn(n)}
		want := reachableFrom(g, roots)
		reuse := NewReuse()
		for pass := 0; pass < 2; pass++ { // second pass is all cache hits
			if got := reuse.Engine().Reach(g, roots); !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d pass %d: engine reach differs from structural search", trial, pass)
			}
		}
		var nilReuse *Reuse
		if got := nilReuse.Engine().Reach(g, roots); !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: nil-handle reach differs from structural search", trial)
		}
	}
}
