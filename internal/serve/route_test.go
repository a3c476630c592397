package serve

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"jcr/internal/graph"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
)

// TestRouteSize pins the hot-path value size. Lookup returns Route by
// value and callers store it into slices; Go copies values larger than a
// few words through runtime.duffcopy, which dominated the lookup profile
// when Route carried three slice headers (104 bytes). Six words keep the
// copy a handful of moves.
func TestRouteSize(t *testing.T) {
	if sz := unsafe.Sizeof(Route{}); sz > 48 {
		t.Fatalf("Route is %d bytes, want <= 48", sz)
	}
}

// refRoute is the Route layout the data plane used before the path table
// was shared: three slice headers into the plan or fail-safe arrays. It and
// the functions below are the reference the differential test holds the
// 48-byte Route to.
type refRoute struct {
	Kind    RouteKind
	Epoch   uint64
	Replica graph.NodeID
	Cost    float64

	arcs     []int32
	from, to []int32
}

func (r refRoute) Hops() int { return len(r.arcs) }

func (r refRoute) Arc(j int) graph.ArcID { return graph.ArcID(r.arcs[j]) }

func (r refRoute) Node(j int) graph.NodeID {
	if j == 0 {
		return graph.NodeID(r.from[r.arcs[0]])
	}
	return graph.NodeID(r.to[r.arcs[j-1]])
}

// refLookup is Lookup without the counters, resolving through the
// reference route construction and re-summing pick.
func refLookup(d *DataPlane, item int, node graph.NodeID, pick uint64) refRoute {
	if p := d.plan.Load(); p != nil {
		if item >= 0 && item < p.NumItems && node >= 0 && node < p.NumNodes {
			g := node*p.NumItems + item
			if lo, hi := p.groupOff[g], p.groupOff[g+1]; lo != hi {
				return refPickRoute(p, Routes{p: p, lo: lo, hi: hi}, pick)
			}
		}
	}
	if node >= 0 && node < d.fs.numNodes && d.fs.server[node] >= 0 {
		fs := &d.fs.paths
		return refRoute{
			Kind:    RouteFailsafe,
			Replica: graph.NodeID(d.fs.server[node]),
			Cost:    d.fs.dist[node],
			arcs:    fs.arcs[fs.arcOff[node]:fs.arcOff[node+1]],
			from:    fs.arcFrom,
			to:      fs.arcTo,
		}
	}
	return refRoute{Kind: RouteNone, Replica: -1}
}

// refPickRoute re-sums the group's split rates on every pick.
func refPickRoute(p *CompiledPlan, rs Routes, pick uint64) refRoute {
	k := 0
	if n := int(rs.hi - rs.lo); n > 1 {
		total := 0.0
		for r := rs.lo; r < rs.hi; r++ {
			total += p.routeRate[r]
		}
		if total > rateEps {
			target := float64(pick>>11) / (1 << 53) * total
			cum := 0.0
			for i := 0; i < n-1; i++ {
				cum += p.routeRate[rs.lo+int32(i)]
				if target < cum {
					break
				}
				k = i + 1
			}
		}
	}
	rt := rs.lo + int32(k)
	return refRoute{
		Kind:    RoutePlan,
		Epoch:   p.Epoch,
		Replica: graph.NodeID(p.routeReplica[rt]),
		Cost:    p.routeCost[rt],
		arcs:    p.paths.arcs[p.paths.arcOff[rt]:p.paths.arcOff[rt+1]],
		from:    p.paths.arcFrom,
		to:      p.paths.arcTo,
	}
}

// sameRoute reports the first difference between a lookup and the
// reference, or "" when they agree bit for bit.
func sameRoute(got Route, want refRoute) string {
	switch {
	case got.Kind != want.Kind:
		return "kind"
	case got.Epoch != want.Epoch:
		return "epoch"
	case got.Replica != want.Replica:
		return "replica"
	case math.Float64bits(got.Cost) != math.Float64bits(want.Cost):
		return "cost"
	case got.Hops() != want.Hops():
		return "hops"
	}
	for j := 0; j < want.Hops(); j++ {
		if got.Arc(j) != want.Arc(j) {
			return "arc"
		}
	}
	for j := 0; want.Hops() > 0 && j <= want.Hops(); j++ {
		if got.Node(j) != want.Node(j) {
			return "node"
		}
	}
	return ""
}

// diffCoverage counts the route shapes a differential run exercised, so
// the test fails if its instances stop producing one of them.
// split counts groups with two or more positive-rate routes.
type diffCoverage struct {
	split, zeroRate, localHit, failsafe, none int
}

// diffLookups compares every (item, node) of the data plane's universe —
// plus out-of-catalog items and out-of-range nodes — against the
// reference, with 64 random picks and the two extreme ones each.
func diffLookups(t *testing.T, r *rand.Rand, dp *DataPlane, items, nodes int, cov *diffCoverage) {
	t.Helper()
	picks := make([]uint64, 66)
	picks[1] = math.MaxUint64
	for item := -1; item <= items+1; item++ {
		for node := -1; node <= nodes; node++ {
			for k := 2; k < len(picks); k++ {
				picks[k] = r.Uint64()
			}
			if p := dp.Plan(); p != nil {
				if rs, ok := p.Routes(item, node); ok {
					positive := 0
					for k := 0; k < rs.Len(); k++ {
						if rs.Rate(k) > rateEps {
							positive++
						}
					}
					switch {
					case positive > 1:
						cov.split++
					case positive == 0:
						cov.zeroRate++
					}
				}
			}
			for _, pick := range picks {
				got, want := dp.Lookup(item, node, pick), refLookup(dp, item, node, pick)
				if d := sameRoute(got, want); d != "" {
					t.Fatalf("lookup (%d,%d,%#x): %s differs: got %+v, want %+v", item, node, pick, d, got, want)
				}
			}
			switch rt := dp.Lookup(item, node, 0); {
			case rt.Kind == RouteFailsafe:
				cov.failsafe++
			case rt.Kind == RouteNone:
				cov.none++
			case rt.Hops() == 0:
				cov.localHit++
			}
		}
	}
}

// splitSomeRoutes adds the split shapes a plan can carry on top of its
// serving paths: some requests also draw a random share from the origin
// along its shortest path, some routes get a zero-rate duplicate, and some
// requests have every rate zeroed (a decayed demand).
func splitSomeRoutes(r *rand.Rand, s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath) []placement.ServingPath {
	origin := s.Pinned[0]
	tree := graph.TreeOf(s.G, origin)
	out := append([]placement.ServingPath(nil), paths...)
	for k := range paths {
		sp := out[k]
		switch r.Intn(4) {
		case 0:
			out[k].Rate = 0
		case 1:
			sp.Rate = 0
			out = append(out, sp)
		case 2:
			if p, ok := tree.PathTo(s.G, sp.Req.Node); ok && sp.Req.Node != origin && pl.Stores[origin][sp.Req.Item] {
				out = append(out, placement.ServingPath{Req: sp.Req, Path: p, Rate: 5 * r.Float64()})
			}
		}
	}
	return out
}

// TestRouteMatchesReference is the differential test of the 48-byte Route
// and the precomputed group rate: on randomized compile round-trip
// instances — RNR plans with local hits, IC-FR plans with fractional
// splits, zero-rate groups, fail-safe and unresolved lookups — every
// lookup must match the reference route construction bit for bit.
func TestRouteMatchesReference(t *testing.T) {
	var cov diffCoverage
	for trial := 0; trial < 40; trial++ {
		r := rng.Derive(4242, int64(trial))
		s := randomSpec(r)
		dp := testDataPlane(t, s)
		// No plan yet: every lookup is fail-safe or unresolved.
		diffLookups(t, r, dp, s.NumItems, s.G.NumNodes(), &cov)

		pl, paths := solveRNR(t, s)
		alt := &strategy.Alternating{Options: strategy.Options{Fractional: true, NoSolverReuse: true}}
		sol, _, err := alt.Decide(context.Background(), strategy.Instance{Spec: s})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		plans := []struct {
			pl    *placement.Placement
			paths []placement.ServingPath
		}{
			{pl, paths},
			{sol.Placement, sol.Paths},
			{sol.Placement, splitSomeRoutes(r, s, sol.Placement, sol.Paths)},
		}
		for k, pp := range plans {
			p, err := Compile(s, pp.pl, pp.paths, uint64(k)+1, 0)
			if err != nil {
				t.Fatalf("trial %d plan %d: %v", trial, k, err)
			}
			if err := dp.Install(p); err != nil {
				t.Fatalf("trial %d plan %d: %v", trial, k, err)
			}
			diffLookups(t, r, dp, s.NumItems, s.G.NumNodes(), &cov)
		}
	}
	if cov.split == 0 || cov.zeroRate == 0 || cov.localHit == 0 || cov.failsafe == 0 || cov.none == 0 {
		t.Fatalf("instances missed a route shape: %+v", cov)
	}
}

// TestSnapshotPartitionUnderSwaps races lookups against plan swaps and
// checks the counters afterwards: each lookup bumps exactly one rung, so
// Lookups equals the number issued and the rungs match what the lookups
// returned (run under -race in CI).
func TestSnapshotPartitionUnderSwaps(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	pl, paths := solveRNR(t, s)
	base, err := Compile(s, pl, paths, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker, swaps = 4, 20000, 200
	kinds := make([][3]uint64, workers)
	grp, _ := par.NewGroup(context.Background())
	grp.Go(func(ctx context.Context) error {
		for e := uint64(1); e <= swaps; e++ {
			c := *base
			c.Epoch = e
			if err := dp.Install(&c); err != nil {
				return err
			}
		}
		return nil
	})
	for w := 0; w < workers; w++ {
		w := w
		grp.Go(func(ctx context.Context) error {
			r := rng.Derive(17, int64(w))
			for k := 0; k < perWorker; k++ {
				// Items past the catalog fall to the fail-safe table,
				// nodes past the universe to RouteNone.
				rt := dp.Lookup(r.Intn(s.NumItems+1), r.Intn(s.G.NumNodes()+1), r.Uint64())
				kinds[w][rt.Kind]++
			}
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		t.Fatal(err)
	}
	var want [3]uint64
	for _, kc := range kinds {
		for k := range want {
			want[k] += kc[k]
		}
	}
	m := dp.Snapshot(0)
	if m.Lookups != workers*perWorker {
		t.Fatalf("Lookups = %d, issued %d", m.Lookups, workers*perWorker)
	}
	if m.PlanServed+m.FailsafeServed+m.Unresolved != m.Lookups {
		t.Fatalf("rungs %d+%d+%d do not sum to %d", m.PlanServed, m.FailsafeServed, m.Unresolved, m.Lookups)
	}
	if m.PlanServed != want[RoutePlan] || m.FailsafeServed != want[RouteFailsafe] || m.Unresolved != want[RouteNone] {
		t.Fatalf("rungs %+v, lookups returned plan %d, fail-safe %d, none %d", m, want[RoutePlan], want[RouteFailsafe], want[RouteNone])
	}
	if m.Swaps != swaps {
		t.Fatalf("Swaps = %d, want %d", m.Swaps, swaps)
	}
}
