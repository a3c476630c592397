package placement

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"jcr/internal/graph"
)

// diffInstances is the number of seeded random instances each differential
// test runs against its reference oracle.
const diffInstances = 300

// diffSpec draws a small random placement instance built to stress the
// tie-breaking of the greedy and polish passes: small integer arc costs
// (many equal distances), one-way arcs (unreachable pairs), zero-capacity
// nodes, zero to two pinned nodes, items nobody requests, and integer
// rates. hetero draws item sizes and fractional capacities (Section 5).
// reachable keeps every requester reachable from a pinned node, as
// Spec.RNRSources requires; otherwise some spanning links are one-way and
// there may be no pinned node at all.
func diffSpec(rng *rand.Rand, hetero, reachable bool) *Spec {
	n := 3 + rng.Intn(10)
	items := 1 + rng.Intn(8)
	g := graph.New(n)
	cost := func() float64 { return float64(1 + rng.Intn(3)) }
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		if reachable || rng.Float64() < 0.8 {
			g.AddEdge(u, v, cost(), graph.Unlimited)
		} else {
			g.AddArc(u, v, cost(), graph.Unlimited)
		}
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddArc(u, v, cost(), graph.Unlimited)
		}
	}
	s := &Spec{
		G:        g,
		NumItems: items,
		CacheCap: make([]float64, n),
		Rates:    make([][]float64, items),
	}
	for k := rng.Intn(3); k > 0; k-- {
		if v := rng.Intn(n); !s.IsPinned(v) {
			s.Pinned = append(s.Pinned, v)
		}
	}
	if reachable && len(s.Pinned) == 0 {
		s.Pinned = []graph.NodeID{rng.Intn(n)}
	}
	for v := range s.CacheCap {
		s.CacheCap[v] = float64(rng.Intn(4))
		if hetero && s.CacheCap[v] > 0 {
			s.CacheCap[v] = 6 * rng.Float64()
		}
	}
	if hetero {
		s.ItemSize = make([]float64, items)
		for i := range s.ItemSize {
			if rng.Float64() < 0.5 {
				s.ItemSize[i] = float64(1 + rng.Intn(3))
			} else {
				s.ItemSize[i] = 0.5 + 2.5*rng.Float64()
			}
		}
	}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		if rng.Float64() < 0.2 {
			continue // an item nobody requests
		}
		for v := 0; v < n; v++ {
			if s.IsPinned(v) || rng.Float64() < 0.5 {
				continue
			}
			if rng.Float64() < 0.5 {
				s.Rates[i][v] = float64(1 + rng.Intn(3))
			} else {
				s.Rates[i][v] = 0.1 + 9*rng.Float64()
			}
		}
	}
	return s
}

// cacheableNodes lists the nodes Alg. 1 decides for: positive capacity and
// not pinned.
func cacheableNodes(s *Spec) []graph.NodeID {
	var nodes []graph.NodeID
	for v := 0; v < s.G.NumNodes(); v++ {
		if s.CacheCap[v] > 0 && !s.IsPinned(v) {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// TestPolishMatchesReference runs the incremental polish and the
// from-scratch reference from the same random feasible placement (some
// slots left empty, so the fill step runs) and requires identical results.
func TestPolishMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var fills, swaps int
	for trial := 0; trial < diffInstances; trial++ {
		s := diffSpec(rng, false, false)
		dist := graph.AllPairs(s.G)
		wmax := graph.MaxFinite(dist)
		nodes := cacheableNodes(s)
		start := s.NewPlacement()
		for _, v := range nodes {
			for _, i := range rng.Perm(s.NumItems)[:rng.Intn(min(int(s.CacheCap[v]), s.NumItems)+1)] {
				start.Stores[v][i] = true
			}
		}
		got, want := start.Clone(), start.Clone()
		polishPlacement(s, dist, wmax, got, nodes)
		polishReference(s, dist, wmax, want, nodes)
		if !reflect.DeepEqual(got.Stores, want.Stores) {
			t.Fatalf("trial %d: polish %v, reference %v (start %v)", trial, got.Stores, want.Stores, start.Stores)
		}
		if err := s.CheckFeasible(got); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, v := range nodes {
			for i := range got.Stores[v] {
				switch {
				case got.Stores[v][i] && !start.Stores[v][i]:
					fills++
				case !got.Stores[v][i] && start.Stores[v][i]:
					swaps++
				}
			}
		}
	}
	// The instances must exercise both move kinds, or the comparison
	// proves little.
	if fills == 0 || swaps == 0 {
		t.Fatalf("degenerate instances: %d added and %d removed items", fills, swaps)
	}
}

// TestGreedyMatchesReference compares Greedy with its from-scratch
// reference on homogeneous and heterogeneous instances: same placement,
// same sources, and bit-identical saving and cost.
func TestGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < diffInstances; trial++ {
		s := diffSpec(rng, trial%2 == 1, true)
		dist := graph.AllPairs(s.G)
		got, err := Greedy(s, dist)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := greedyReference(s, dist)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Placement.Stores, want.Placement.Stores) {
			t.Fatalf("trial %d: greedy %v, reference %v", trial, got.Placement.Stores, want.Placement.Stores)
		}
		if !reflect.DeepEqual(got.Sources, want.Sources) {
			t.Fatalf("trial %d: sources differ", trial)
		}
		//jcrlint:allow float-eq: both passes must do the same float operations in the same order, so the sums are bit-identical, not merely close
		if got.Saving != want.Saving || got.Cost != want.Cost {
			t.Fatalf("trial %d: saving %v cost %v, reference saving %v cost %v", trial, got.Saving, got.Cost, want.Saving, want.Cost)
		}
	}
}

// TestPerPathGreedyMatchesReference compares the per-path greedy with its
// from-scratch reference on multi-hop serving paths (pinned nodes inside
// paths, zero-cost arcs, zero-rate and duplicated paths, split requests),
// with homogeneous and heterogeneous sizes and some items left unrequested.
func TestPerPathGreedyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < diffInstances; trial++ {
		s, paths := presolveSpec(rng)
		if rng.Float64() < 0.3 {
			// Drop one item's requests and paths: an empty rate row.
			drop := rng.Intn(s.NumItems)
			s.Rates[drop] = make([]float64, s.G.NumNodes())
			kept := paths[:0]
			for _, sp := range paths {
				if sp.Req.Item != drop {
					kept = append(kept, sp)
				}
			}
			paths = kept
		}
		if trial%2 == 1 {
			s.ItemSize = make([]float64, s.NumItems)
			for i := range s.ItemSize {
				s.ItemSize[i] = float64(1 + rng.Intn(3))
			}
		}
		got, err := placePerPathGreedy(nil, s, paths)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := perPathGreedyReference(nil, s, paths)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Stores, want.Stores) {
			t.Fatalf("trial %d: per-path greedy %v, reference %v", trial, got.Stores, want.Stores)
		}
	}
}

// TestAlg1PolishProperties measures what the polish comment in alg1.go
// claims: on random homogeneous instances the polished placement is
// feasible (Eq. 1f), saves at least as much as the unpolished pipage
// rounding (the search is monotone, so Theorem 4.4's (1-1/e) bound carries
// over), and never exceeds the LP bound.
func TestAlg1PolishProperties(t *testing.T) {
	const tol = 1e-9
	rng := rand.New(rand.NewSource(24))
	var improved, tested int
	for trial := 0; trial < 150; trial++ {
		s := diffSpec(rng, false, true)
		dist := graph.AllPairs(s.G)
		wmax := graph.MaxFinite(dist)
		if wmax <= 0 {
			continue
		}
		tested++
		polished, err := Alg1(nil, s, dist, Alg1Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plain, err := Alg1(nil, s, dist, Alg1Options{DisablePolish: true})
		if err != nil {
			t.Fatalf("trial %d unpolished: %v", trial, err)
		}
		if err := s.CheckFeasible(polished.Placement); err != nil {
			t.Fatalf("trial %d: polished placement infeasible: %v", trial, err)
		}
		sp := s.SavingRNR(polished.Placement, dist, wmax)
		su := s.SavingRNR(plain.Placement, dist, wmax)
		if sp < su-tol*(1+math.Abs(su)) {
			t.Fatalf("trial %d: polished saving %v below unpolished %v", trial, sp, su)
		}
		if sp > polished.LPValue+tol*(1+math.Abs(polished.LPValue)) {
			t.Fatalf("trial %d: saving %v exceeds the LP bound %v", trial, sp, polished.LPValue)
		}
		if sp > su+tol*(1+math.Abs(su)) {
			improved++
		}
	}
	if tested < 100 || improved == 0 {
		t.Fatalf("degenerate instances: %d tested, polish improved %d", tested, improved)
	}
}

// TestKSP3MatchesReference compares KSP3's incremental greedy with its
// from-scratch reference on homogeneous and heterogeneous instances (the
// latter in equal-size slots), with K in {1, 2, 3} and requesters the
// origin cannot reach: same placement and the same chosen paths.
func TestKSP3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var tested, unreachable int
	for trial := 0; trial < diffInstances; trial++ {
		s := diffSpec(rng, trial%2 == 1, trial%3 == 0)
		if len(s.Pinned) == 0 {
			continue // no origin: every requester would hold requests at it
		}
		tested++
		origin := s.Pinned[rng.Intn(len(s.Pinned))]
		k := 1 + trial%3
		got, err := KSP3(s, origin, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := kspReference(s, origin, k)
		if err != nil {
			t.Fatalf("trial %d reference: %v", trial, err)
		}
		if !reflect.DeepEqual(got.Placement.Stores, want.Placement.Stores) {
			t.Fatalf("trial %d (k=%d): placement %v, reference %v", trial, k, got.Placement.Stores, want.Placement.Stores)
		}
		if !reflect.DeepEqual(got.Chosen, want.Chosen) {
			t.Fatalf("trial %d (k=%d): chosen paths %v, reference %v", trial, k, got.Chosen, want.Chosen)
		}
		unreachable += len(s.Requests()) - len(got.Chosen)
	}
	if tested < diffInstances/2 || unreachable == 0 {
		t.Fatalf("degenerate instances: %d tested, %d requests unreachable from the origin", tested, unreachable)
	}
}

// randomPlacement adds each (node, item) pair to s's pinned placement with
// probability 0.3, ignoring capacities: the replica sets the nearest-two
// tests scan.
func randomPlacement(rng *rand.Rand, s *Spec) *Placement {
	pl := s.NewPlacement()
	for v := range pl.Stores {
		for i := range pl.Stores[v] {
			if rng.Float64() < 0.3 {
				pl.Stores[v][i] = true
			}
		}
	}
	return pl
}

// sortedReplicas is the nearest-two oracle: rq's reachable replicas under
// pl, sorted by distance and then node ID.
func sortedReplicas(pl *Placement, dist [][]float64, rq Request) []graph.NodeID {
	var reps []graph.NodeID
	for v := range pl.Stores {
		if pl.Stores[v][rq.Item] && !math.IsInf(dist[v][rq.Node], 1) {
			reps = append(reps, v)
		}
	}
	sort.SliceStable(reps, func(a, b int) bool { return dist[reps[a]][rq.Node] < dist[reps[b]][rq.Node] })
	return reps
}

// TestNearestTwoMatchesSort checks nearestTwo, and the MinDelay split built
// on it, against the sort-based oracle on tie-heavy instances with
// unreachable replicas: the two nearest reachable replicas, ties to the
// smaller ID, -1 at +Inf when missing; and per request one path at the
// full rate (a local hit or a single replica) or two paths split
// inversely to distance, each the replica's shortest-path-tree path.
func TestNearestTwoMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var ties, unreachable, splits int
	for trial := 0; trial < diffInstances; trial++ {
		s := diffSpec(rng, false, false)
		dist := graph.AllPairs(s.G)
		pl := randomPlacement(rng, s)
		var want []ServingPath
		wantUnserved := map[Request]float64{}
		for _, rq := range s.Requests() {
			reps := sortedReplicas(pl, dist, rq)
			wv1, wv2, wd1, wd2 := -1, -1, math.Inf(1), math.Inf(1)
			if len(reps) > 0 {
				wv1, wd1 = reps[0], dist[reps[0]][rq.Node]
			}
			if len(reps) > 1 {
				wv2, wd2 = reps[1], dist[reps[1]][rq.Node]
				//jcrlint:allow float-eq: counts exact distance ties, which the integer arc costs make common
				if wd1 == wd2 {
					ties++
				}
			}
			for v := range pl.Stores {
				if pl.Stores[v][rq.Item] && math.IsInf(dist[v][rq.Node], 1) {
					unreachable++
				}
			}
			v1, v2, d1, d2 := nearestTwo(pl, dist, rq)
			//jcrlint:allow float-eq: the scan must return the oracle's distances themselves
			if v1 != wv1 || v2 != wv2 || d1 != wd1 || d2 != wd2 {
				t.Fatalf("trial %d, request %v: nearestTwo (%d, %d, %v, %v), oracle (%d, %d, %v, %v)", trial, rq, v1, v2, d1, d2, wv1, wv2, wd1, wd2)
			}
			lam := s.Rates[rq.Item][rq.Node]
			pathFrom := func(v graph.NodeID) graph.Path {
				p, _ := graph.TreeOf(s.G, v).PathTo(s.G, rq.Node)
				return p
			}
			switch {
			case wv1 < 0:
				wantUnserved[rq] += lam
			case wv1 == rq.Node || wv2 < 0:
				want = append(want, ServingPath{Req: rq, Path: pathFrom(wv1), Rate: lam})
			default:
				splits++
				w1, w2 := 1/(wd1+1), 1/(wd2+1)
				rate1 := lam * w1 / (w1 + w2)
				want = append(want,
					ServingPath{Req: rq, Path: pathFrom(wv1), Rate: rate1},
					ServingPath{Req: rq, Path: pathFrom(wv2), Rate: lam - rate1})
			}
		}
		got, unserved := MultipathServing(s, pl, dist)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d serving paths, oracle %d", trial, len(got), len(want))
		}
		for k := range got {
			g, w := got[k], want[k]
			//jcrlint:allow float-eq: the split must do the oracle's float operations, so the rates are bit-identical
			if g.Req != w.Req || g.Rate != w.Rate || g.Path.Len() != w.Path.Len() || (g.Path.Len() > 0 && !reflect.DeepEqual(g.Path, w.Path)) {
				t.Fatalf("trial %d, path %d: %+v, oracle %+v", trial, k, g, w)
			}
		}
		if len(unserved) != len(wantUnserved) || (len(unserved) > 0 && !reflect.DeepEqual(unserved, wantUnserved)) {
			t.Fatalf("trial %d: unserved %v, oracle %v", trial, unserved, wantUnserved)
		}
	}
	if ties == 0 || unreachable == 0 || splits == 0 {
		t.Fatalf("degenerate instances: %d ties, %d unreachable replicas, %d splits", ties, unreachable, splits)
	}
}
