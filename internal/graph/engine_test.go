package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// tieGraph builds a random connected graph with small integer costs, so
// equal-cost shortest paths (the case where canonical tie-breaking
// matters) are everywhere.
func tieGraph(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, float64(1+rng.Intn(3)), float64(1+rng.Intn(10)))
		}
	}
	return g
}

// subgraphWithout rebuilds g the way the fault injector rebuilds a
// degraded hour: walk the arcs in order, copy each surviving arc's
// endpoints, cost, and capacity verbatim.
func subgraphWithout(g *Graph, disabled map[ArcID]bool) *Graph {
	d := New(g.NumNodes())
	for id := 0; id < g.NumArcs(); id++ {
		if disabled[ArcID(id)] {
			continue
		}
		a := g.Arc(id)
		d.AddArc(a.From, a.To, a.Cost, a.Cap)
	}
	return d
}

// Engine.Tree on the home graph itself is bit-for-bit TreeOf, ties and
// all, for every source.
func TestEngineTreeMatchesTreeOf(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := tieGraph(rng, 3+rng.Intn(12), rng.Intn(20))
		eng := NewEngine()
		for src := 0; src < g.NumNodes(); src++ {
			want := TreeOf(g, src)
			got := eng.Tree(g, src)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("trial %d src %d: engine tree differs from TreeOf", trial, src)
			}
			// Second call must be an exact cache hit with the same bits.
			if again := eng.Tree(g, src); !reflect.DeepEqual(want, again) {
				t.Fatalf("trial %d src %d: cached tree differs", trial, src)
			}
		}
		st := eng.Stats()
		if st.Hits != uint64(g.NumNodes()) || st.Cold != uint64(g.NumNodes()) || st.Rehomes != 1 {
			t.Fatalf("trial %d: stats = %+v", trial, st)
		}
	}
}

// Repaired trees across an evolving fault mask are bit-for-bit identical
// to cold canonical trees of each rebuilt graph.
func TestEngineRepairMatchesColdAcrossMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 12; trial++ {
		n := 8 + rng.Intn(12)
		g := tieGraph(rng, n, n)
		eng := NewEngine()
		srcs := []NodeID{0, rng.Intn(n), rng.Intn(n)}
		for _, src := range srcs {
			eng.Tree(g, src) // warm on the intact graph
		}
		disabled := map[ArcID]bool{}
		for round := 0; round < 20; round++ {
			// Flip a few arcs down or back up.
			for f := 0; f < 1+rng.Intn(3); f++ {
				id := ArcID(rng.Intn(g.NumArcs()))
				if disabled[id] {
					delete(disabled, id)
				} else {
					disabled[id] = true
				}
			}
			d := subgraphWithout(g, disabled)
			for _, src := range srcs {
				want := TreeOf(d, src)
				got := eng.Tree(d, src)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("trial %d round %d src %d (%d disabled): repaired tree differs from cold",
						trial, round, src, len(disabled))
				}
			}
		}
		st := eng.Stats()
		if st.Repairs == 0 {
			t.Fatalf("trial %d: no repairs exercised: %+v", trial, st)
		}
		if st.Rehomes != 1 {
			t.Fatalf("trial %d: unexpected rehome: %+v", trial, st)
		}
	}
}

// A mask delta past repairMaxDelta falls back to the cold kernel and
// still returns the identical tree.
func TestEngineOversizedDeltaFallsBackCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := tieGraph(rng, 60, 120) // well over repairMaxDelta arcs
	eng := NewEngine()
	eng.Tree(g, 0)
	disabled := map[ArcID]bool{}
	for len(disabled) < repairMaxDelta+10 {
		disabled[ArcID(rng.Intn(g.NumArcs()))] = true
	}
	d := subgraphWithout(g, disabled)
	if want, got := TreeOf(d, 0), eng.Tree(d, 0); !reflect.DeepEqual(want, got) {
		t.Fatal("fallback tree differs from cold")
	}
	st := eng.Stats()
	if st.Repairs != 0 || st.Cold != 2 {
		t.Fatalf("expected pure cold fallback, got %+v", st)
	}
}

// Arcs the home universe has never seen — a re-priced arc (degrade event)
// or a brand-new one — extend the universe by merge instead of dropping the
// cache; only a node-count change forces a re-home.
func TestEngineMergesForeignArcsKeepsTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := tieGraph(rng, 10, 10)
	eng := NewEngine()
	eng.Tree(g, 0)

	h := g.Clone()
	h.SetArcCost(0, g.Arc(0).Cost+1)
	if want, got := TreeOf(h, 0), eng.Tree(h, 0); !reflect.DeepEqual(want, got) {
		t.Fatal("tree after cost change differs from cold")
	}
	if st := eng.Stats(); st.Rehomes != 1 || st.Merges != 1 {
		t.Fatalf("cost change should merge, not re-home, got %+v", st)
	}

	k := h.Clone()
	k.AddArc(0, h.NumNodes()-1, 1, 1)
	if want, got := TreeOf(k, 2), eng.Tree(k, 2); !reflect.DeepEqual(want, got) {
		t.Fatal("tree after arc addition differs from cold")
	}
	if st := eng.Stats(); st.Rehomes != 1 || st.Merges != 2 {
		t.Fatalf("extra arc should merge, not re-home, got %+v", st)
	}

	// Going back to the original graph is served inside the merged
	// universe too: its arcs are a subsequence of the union.
	if want, got := TreeOf(g, 0), eng.Tree(g, 0); !reflect.DeepEqual(want, got) {
		t.Fatal("tree on the original graph differs from cold after merges")
	}
	if st := eng.Stats(); st.Rehomes != 1 || st.Merges != 2 {
		t.Fatalf("original graph should attach without merging, got %+v", st)
	}

	big := New(g.NumNodes() + 1)
	big.AddArc(0, g.NumNodes(), 1, 1)
	eng.Tree(big, 0)
	if st := eng.Stats(); st.Rehomes != 2 {
		t.Fatalf("node-count change should re-home, got %+v", st)
	}
}

// A non-monotone fault sequence — links recovering as well as failing, so
// no hour's live set is a subsequence of the previous hour's — must settle
// into merge-then-repair, never a per-hour re-home. This is the access
// pattern of consecutive fault hours in the online controller.
func TestEngineNonMonotoneFaultsRepairAfterMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	g := tieGraph(rng, 40, 80)
	hourA := subgraphWithout(g, map[ArcID]bool{3: true, 17: true})
	hourB := subgraphWithout(g, map[ArcID]bool{8: true, 29: true})
	hourC := subgraphWithout(g, map[ArcID]bool{3: true, 29: true})

	eng := NewEngine()
	for _, h := range []*Graph{hourA, hourB, hourC, hourA} {
		for _, src := range []NodeID{0, 5} {
			if want, got := TreeOf(h, src), eng.Tree(h, src); !reflect.DeepEqual(want, got) {
				t.Fatalf("engine tree differs from cold on hour graph, src %d", src)
			}
		}
	}
	st := eng.Stats()
	if st.Rehomes != 1 {
		t.Fatalf("non-monotone hours must not re-home, got %+v", st)
	}
	if st.Merges == 0 || st.Repairs == 0 {
		t.Fatalf("expected merges then repairs across hours, got %+v", st)
	}
}

// Capacity-only mutation of the home graph (a degradation, not a removal)
// keeps every cached tree valid and is served as a hit.
func TestEngineCapacityChangeKeepsTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := tieGraph(rng, 10, 10)
	eng := NewEngine()
	want := eng.Tree(g, 3)
	g.SetArcCap(1, 0.25)
	got := eng.Tree(g, 3)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("tree changed across a capacity-only mutation")
	}
	st := eng.Stats()
	if st.Hits != 1 || st.Rehomes != 1 {
		t.Fatalf("capacity change should hit the cache, got %+v", st)
	}
}

// Engine.AllPairs equals the plain parallel AllPairs exactly, both cold
// and when most rows come from cache.
func TestEngineAllPairsMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := tieGraph(rng, 20, 30)
	eng := NewEngine()
	eng.Tree(g, 4) // pre-warm one row
	if want, got := AllPairs(g), eng.AllPairs(g); !reflect.DeepEqual(want, got) {
		t.Fatal("engine AllPairs differs from plain AllPairs")
	}
	// All rows cached now; a degraded graph repairs them in parallel.
	disabled := map[ArcID]bool{ArcID(rng.Intn(g.NumArcs())): true}
	d := subgraphWithout(g, disabled)
	if want, got := AllPairs(d), eng.AllPairs(d); !reflect.DeepEqual(want, got) {
		t.Fatal("engine AllPairs on degraded graph differs from plain")
	}
	if st := eng.Stats(); st.Repairs == 0 {
		t.Fatalf("expected parallel repairs, got %+v", st)
	}
}

// Engine.Reach equals the union of per-root tree reachability, through
// both the nil-engine fallback and the cached path.
func TestEngineReach(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := tieGraph(rng, 12, 6)
	// Make node reachability non-trivial: cut everything into the last node.
	disabled := map[ArcID]bool{}
	last := g.NumNodes() - 1
	for id := 0; id < g.NumArcs(); id++ {
		if g.Arc(id).To == last {
			disabled[ArcID(id)] = true
		}
	}
	d := subgraphWithout(g, disabled)
	roots := []NodeID{0, 3}
	want := make([]bool, d.NumNodes())
	for _, r := range roots {
		for v, dd := range TreeOf(d, r).Dist {
			if !math.IsInf(dd, 1) {
				want[v] = true
			}
		}
	}
	var nilEng *Engine
	if got := nilEng.Reach(d, roots); !reflect.DeepEqual(want, got) {
		t.Fatal("nil-engine Reach differs from tree union")
	}
	eng := NewEngine()
	if got := eng.Reach(d, roots); !reflect.DeepEqual(want, got) {
		t.Fatal("engine Reach differs from tree union")
	}
	if want[last] {
		t.Fatal("test graph did not isolate the last node")
	}
}

// The pre-CSR reference implementation agrees with the canonical kernel
// on every distance (exactly — same sums in the same order), including
// with an arc banned.
func TestReferenceDijkstraDistAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g := tieGraph(rng, 3+rng.Intn(12), rng.Intn(24))
		src := rng.Intn(g.NumNodes())
		banned := ArcID(rng.Intn(g.NumArcs()))
		skipArc := func(id ArcID) bool { return id == banned }
		banArc := make([]bool, g.NumArcs())
		banArc[banned] = true
		want := referenceDijkstra(g, src, skipArc, nil).Dist
		got := banTree(g, src, banArc, make([]bool, g.NumNodes())).Dist
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: kernel distances differ from reference", trial)
		}
	}
}

// spGraph builds the shortest-path benchmark topology: a random connected
// edge-paired graph with small integer costs (equal-cost shortest paths
// everywhere, the tie-heavy regime the canonical kernels pay for).
func spGraph(n int) *Graph {
	rng := rand.New(rand.NewSource(97))
	g := New(n)
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

// BenchmarkDijkstra times one canonical CSR shortest-path tree from node 0
// of the 400-node tie-heavy graph; BenchmarkDijkstraReference times the
// pre-engine reference Dijkstra on the same tree.
func BenchmarkDijkstra(b *testing.B) {
	g := spGraph(400)
	g.view() // build the CSR outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TreeOf(g, 0)
	}
}

func BenchmarkDijkstraReference(b *testing.B) {
	g := spGraph(400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceDijkstra(g, 0, nil, nil)
	}
}

// BenchmarkYenK25 times Yen's 25 shortest paths across the 600-node
// tie-heavy graph (hundreds of spur searches per call).
func BenchmarkYenK25(b *testing.B) {
	g := spGraph(600)
	g.view()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KShortestPaths(g, 0, g.NumNodes()-1, 25)
	}
}

func BenchmarkEngineRepairHour(b *testing.B) {
	g := spGraph(400)
	eng := NewEngine()
	eng.Tree(g, 0)
	rng := rand.New(rand.NewSource(5))
	hours := make([]*Graph, 16)
	for h := range hours {
		disabled := map[ArcID]bool{}
		for len(disabled) < 6 {
			disabled[ArcID(rng.Intn(g.NumArcs()))] = true
		}
		hours[h] = subgraphWithout(g, disabled)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Tree(hours[i%len(hours)], 0)
	}
}

// Randomized merge stress: non-monotone disabled sets plus occasional arc
// re-pricing, the combination that exercises merge, translation, and the
// mixed (detach + re-enable) repair in one engine lifetime. This pinned a
// real bug: the detached region must re-grow against the intermediate mask,
// not the final one (see repair).
func TestEngineMergeRepairMatchesColdWithRepricing(t *testing.T) {
	for seq := 0; seq < 400; seq++ {
		rng := rand.New(rand.NewSource(int64(seq)))
		g := tieGraph(rng, 13, 14)
		eng := NewEngine()
		for hour := 0; hour < 8; hour++ {
			disabled := map[ArcID]bool{}
			for k := 0; k < 1+rng.Intn(3); k++ {
				disabled[ArcID(rng.Intn(g.NumArcs()))] = true
			}
			h := subgraphWithout(g, disabled)
			if rng.Intn(2) == 0 && h.NumArcs() > 0 {
				h.SetArcCost(ArcID(rng.Intn(h.NumArcs())), 0.5)
			}
			for _, src := range []NodeID{0, 9} {
				want := TreeOf(h, src)
				got := eng.Tree(h, src)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("seq %d hour %d src %d:\nwant %+v\ngot  %+v\nstats %+v", seq, hour, src, want, got, eng.Stats())
				}
			}
		}
	}
}

// The kernels' parents, not just their distances, are the canonical ones
// canonicalParents derives from the reference distances: TreeOf, the engine
// across random fault masks (cold, cached and repaired trees), and the
// masked kernel under Yen-style arc and node bans, on the tie-heavy
// fixtures where a heap accident would pick a different equal-cost parent.
func TestKernelParentsAreCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	graphs := []*Graph{spGraph(400)}
	for trial := 0; trial < 40; trial++ {
		graphs = append(graphs, tieGraph(rng, 3+rng.Intn(14), rng.Intn(30)))
	}
	for gi, g := range graphs {
		n := g.NumNodes()
		src := rng.Intn(n)
		if got, want := TreeOf(g, src).ParentArc, canonicalParents(g, src, nil, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d src %d: TreeOf parents are not canonical", gi, src)
		}
		eng := NewEngine()
		for hour := 0; hour < 6; hour++ {
			disabled := map[ArcID]bool{}
			for k := 0; k < rng.Intn(4); k++ {
				disabled[ArcID(rng.Intn(g.NumArcs()))] = true
			}
			h := subgraphWithout(g, disabled)
			if got, want := eng.Tree(h, src).ParentArc, canonicalParents(h, src, nil, nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("graph %d hour %d src %d: engine parents are not canonical (stats %+v)", gi, hour, src, eng.Stats())
			}
		}
		banArc, banNode := make([]bool, g.NumArcs()), make([]bool, n)
		for k := 0; k < 1+rng.Intn(3); k++ {
			banArc[rng.Intn(g.NumArcs())] = true
			if v := rng.Intn(n); v != src {
				banNode[v] = true
			}
		}
		skipArc := func(id ArcID) bool { return banArc[id] }
		skipNode := func(v NodeID) bool { return banNode[v] }
		if got, want := banTree(g, src, banArc, banNode).ParentArc, canonicalParents(g, src, skipArc, skipNode); !reflect.DeepEqual(got, want) {
			t.Fatalf("graph %d src %d: banned-search parents are not canonical", gi, src)
		}
	}
}
