package check

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/topo"
)

// refPartialFlow is PartialFlow as it was before served rates moved into an
// item-by-node slice: a per-request map, the request list from
// s.Requests, and sorted map keys for the witnesses. It is the oracle of
// TestPartialFlowMatchesReference.
func refPartialFlow(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, unserved map[placement.Request]float64, allowCongestion bool) error {
	if err := Placement(s, pl); err != nil {
		return err
	}
	served := map[placement.Request]float64{}
	for k := range paths {
		sp := &paths[k]
		rq := sp.Req
		if rq.Item < 0 || rq.Item >= s.NumItems || rq.Node < 0 || rq.Node >= s.G.NumNodes() {
			return fmt.Errorf("check: serving path %d references request (%d,%d) out of range", k, rq.Item, rq.Node)
		}
		if sp.Rate < 0 || math.IsNaN(sp.Rate) {
			return fmt.Errorf("check: serving path %d has invalid rate %v", k, sp.Rate)
		}
		if len(sp.Path.Arcs) == 0 {
			if !pl.Stores[rq.Node][rq.Item] {
				return fmt.Errorf("check: empty path for request (%d,%d) but requester stores no replica", rq.Item, rq.Node)
			}
		} else {
			if err := sp.Path.Validate(s.G, sp.Path.Source(s.G), rq.Node); err != nil {
				return fmt.Errorf("check: serving path %d for request (%d,%d): %w", k, rq.Item, rq.Node, err)
			}
			stored := false
			for _, v := range sp.Path.Nodes(s.G) {
				if pl.Stores[v][rq.Item] {
					stored = true
					break
				}
			}
			if !stored {
				return fmt.Errorf("check: serving path %d for request (%d,%d) touches no replica", k, rq.Item, rq.Node)
			}
		}
		served[rq] += sp.Rate
	}
	for _, rq := range s.Requests() {
		want := s.Rates[rq.Item][rq.Node]
		got := served[rq]
		if u, ok := unserved[rq]; ok {
			if u < 0 || math.IsNaN(u) {
				return fmt.Errorf("check: request (%d,%d) declares invalid unserved rate %v", rq.Item, rq.Node, u)
			}
			got += u
		}
		if math.Abs(got-want) > RateTol*(1+want) {
			return fmt.Errorf("check: request (%d,%d) served at rate %.9g, demand %.9g", rq.Item, rq.Node, got, want)
		}
		delete(served, rq)
	}
	for _, rq := range sortedRequests(unserved) {
		u := unserved[rq]
		if rq.Item < 0 || rq.Item >= s.NumItems || rq.Node < 0 || rq.Node >= s.G.NumNodes() {
			return fmt.Errorf("check: unserved entry references request (%d,%d) out of range", rq.Item, rq.Node)
		}
		if s.Rates[rq.Item][rq.Node] <= 0 && u > RateTol {
			return fmt.Errorf("check: request (%d,%d) declares unserved rate %.9g but has no demand", rq.Item, rq.Node, u)
		}
	}
	for _, rq := range sortedRequests(served) {
		if got := served[rq]; got > RateTol {
			return fmt.Errorf("check: request (%d,%d) served at rate %.9g but has no demand", rq.Item, rq.Node, got)
		}
	}
	if !allowCongestion {
		_, loads, _ := placement.EvaluateServing(s, paths, pl)
		for id, load := range loads {
			c := s.G.Arc(id).Cap
			if math.IsInf(c, 1) || c <= 0 {
				continue
			}
			if load > c*(1+CapSlack)+CapSlack {
				return fmt.Errorf("check: arc %d load %.9g exceeds capacity %.9g (Eq. 1d)", id, load, c)
			}
		}
	}
	return nil
}

// randomRouting draws a small spec (some zero rates), a random placement,
// and a fractional routing of it with each request split over its
// shortest paths from up to two replicas. Link capacities are tight, so
// the routing may congest.
func randomRouting(r *rand.Rand) (*placement.Spec, *placement.Placement, []placement.ServingPath) {
	n, items := 3+r.Intn(6), 1+r.Intn(4)
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, r.Intn(v), float64(1+r.Intn(3)), 2+3*r.Float64())
	}
	for e := 0; e < n; e++ {
		if u, v := r.Intn(n), r.Intn(n); u != v {
			g.AddArc(u, v, float64(1+r.Intn(3)), 2+3*r.Float64())
		}
	}
	s := &placement.Spec{G: g, NumItems: items, CacheCap: make([]float64, n), Pinned: []graph.NodeID{0}, Rates: make([][]float64, items)}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for v := range s.Rates[i] {
			if r.Float64() < 0.5 {
				s.Rates[i][v] = 0.1 + 3*r.Float64()
			}
		}
	}
	pl := s.NewPlacement()
	for v := 1; v < n; v++ {
		s.CacheCap[v] = float64(r.Intn(2))
		if s.CacheCap[v] > 0 {
			pl.Stores[v][r.Intn(items)] = true
		}
	}
	var paths []placement.ServingPath
	for _, rq := range s.Requests() {
		rate := s.Rates[rq.Item][rq.Node]
		reps := pl.Replicas(rq.Item)
		split := 1 + r.Intn(2)
		for j := 0; j < split; j++ {
			p, ok := graph.TreeOf(g, reps[r.Intn(len(reps))]).PathTo(g, rq.Node)
			if !ok {
				continue
			}
			paths = append(paths, placement.ServingPath{Req: rq, Path: p, Rate: rate / float64(split)})
		}
	}
	return s, pl, paths
}

// corrupt applies one of the faults PartialFlow must catch to a copy of
// paths and returns it with an unserved map.
func corrupt(r *rand.Rand, s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath) ([]placement.ServingPath, map[placement.Request]float64) {
	paths = append([]placement.ServingPath(nil), paths...)
	n := s.G.NumNodes()
	var unserved map[placement.Request]float64
	pick := func() *placement.ServingPath { return &paths[r.Intn(len(paths))] }
	switch r.Intn(13) {
	case 0: // request out of range
		pick().Req.Item = s.NumItems + r.Intn(2)
	case 1:
		pick().Req.Node = -1
	case 2: // NaN or negative rate
		pick().Rate = math.NaN()
	case 3:
		pick().Rate = -r.Float64()
	case 4: // served without demand: a local hit for a zero-rate request
		for i := 0; i < s.NumItems; i++ {
			for v := 0; v < n; v++ {
				if s.Rates[i][v] == 0 && pl.Stores[v][i] {
					paths = append(paths, placement.ServingPath{Req: placement.Request{Item: i, Node: v}, Rate: 0.5})
				}
			}
		}
	case 5: // unserved without demand, out of range, or invalid
		unserved = map[placement.Request]float64{}
		for j := 0; j < 3; j++ {
			unserved[placement.Request{Item: r.Intn(s.NumItems + 1), Node: r.Intn(n)}] = []float64{0.5, -1, math.NaN(), 0}[r.Intn(4)]
		}
	case 6: // under-service, declared or not
		sp := pick()
		if r.Intn(2) == 0 {
			unserved = map[placement.Request]float64{sp.Req: sp.Rate}
		}
		sp.Rate /= 2
	case 7: // broken path: reversed arcs
		sp := pick()
		rev := make([]graph.ArcID, len(sp.Path.Arcs))
		for k, id := range sp.Path.Arcs {
			rev[len(rev)-1-k] = id
		}
		sp.Path.Arcs = rev
	case 8: // a path missing its first arc may touch no replica
		if sp := pick(); len(sp.Path.Arcs) > 1 {
			sp.Path.Arcs = sp.Path.Arcs[1:]
		}
	case 9: // a local hit at a node without the item
		sp := pick()
		sp.Path.Arcs = nil
	case 10: // a demand that only the path-order sum of its rates meets
		j := r.Intn(len(paths))
		rq, rate := paths[j].Req, paths[j].Rate
		paths[j].Rate = rate * r.Float64()
		for k := 0; k < 2; k++ {
			paths = append(paths, paths[j])
			paths[len(paths)-1].Rate = rate * r.Float64()
		}
		var fwd, rev float64
		for k := range paths {
			if paths[k].Req == rq {
				fwd += paths[k].Rate
			}
		}
		for k := len(paths) - 1; k >= 0; k-- {
			if paths[k].Req == rq {
				rev += paths[k].Rate
			}
		}
		if w, ok := knifeEdge(fwd, rev); ok {
			s.Rates[rq.Item][rq.Node] = w
		}
	}
	return paths, unserved
}

// knifeEdge finds a demand w that a served rate of fwd meets within
// RateTol and one of rev does not, when the two sums differ.
func knifeEdge(fwd, rev float64) (float64, bool) {
	meets := func(got, w float64) bool { return !(math.Abs(got-w) > RateTol*(1+w)) }
	// Start where |fwd-w| = RateTol*(1+w), below fwd when rev is the
	// larger sum and above it otherwise, and search a few ulps around.
	w := (fwd - RateTol) / (1 + RateTol)
	if fwd > rev {
		w = (fwd + RateTol) / (1 - RateTol)
	}
	lo, hi := w, w
	for step := 0; step < 64; step++ {
		for _, c := range []float64{lo, hi} {
			if meets(fwd, c) && !meets(rev, c) {
				return c, true
			}
		}
		lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
	}
	return 0, false
}

// TestPartialFlowMatchesReference checks PartialFlow against the map-based
// reference on valid and corrupted routings (out-of-range requests, NaN or
// negative rates, served and unserved without demand, under-service,
// broken paths, paths that touch no replica, congestion): both must
// return the same error text, and every kind of verdict must occur.
func TestPartialFlowMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	verdicts := map[string]int{}
	for trial := 0; trial < 4000; trial++ {
		s, pl, paths := randomRouting(r)
		if len(paths) == 0 {
			continue
		}
		var unserved map[placement.Request]float64
		if trial%5 != 0 {
			paths, unserved = corrupt(r, s, pl, paths)
		}
		allow := r.Intn(2) == 0
		got := PartialFlow(s, pl, paths, unserved, allow)
		want := refPartialFlow(s, pl, paths, unserved, allow)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: error %v, reference %v", trial, got, want)
		}
		verdict := "ok"
		if want != nil {
			verdict = "other"
			for _, v := range partialFlowVerdicts {
				if strings.Contains(want.Error(), v) {
					verdict = v
				}
			}
		}
		verdicts[verdict]++
	}
	t.Logf("verdicts %v", verdicts)
	for _, v := range append(partialFlowVerdicts, "ok") {
		if verdicts[v] == 0 {
			t.Errorf("no routing drew the %q verdict", v)
		}
	}
}

// TestPartialFlowRejectsMalformedRates pins the rate-shape check that
// guards the item-by-node served slice: a missing row or a short row is an
// error, not an index panic.
func TestPartialFlowRejectsMalformedRates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		s, pl, paths := randomRouting(r)
		short := *s
		short.Rates = append([][]float64(nil), s.Rates...)
		if trial%2 == 0 {
			short.Rates = short.Rates[:len(short.Rates)-1]
		} else {
			short.Rates[0] = short.Rates[0][:s.G.NumNodes()-1]
		}
		if err := PartialFlow(&short, pl, paths, nil, true); err == nil || !strings.Contains(err.Error(), "rate row") {
			t.Fatalf("trial %d: malformed rates gave %v", trial, err)
		}
	}
}

// partialFlowVerdicts tells PartialFlow's errors apart.
// The last word an error contains names it, so the order matters.
var partialFlowVerdicts = []string{
	"out of range", "invalid rate", "invalid unserved", "served at rate", "but has no demand",
	"declares unserved rate", "graph: path", "touches no replica", "requester stores no replica", "Eq. 1d",
}

// BenchmarkPartialFlow checks a drift-sized plan, Abovenet with 54 items
// requested at its 9 edge nodes, the way the control plane checks every
// replan (congestion allowed).
func BenchmarkPartialFlow(b *testing.B) {
	s, pl, res := abovenetPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := PartialFlow(s, pl, res.Paths, res.Unserved, true); err != nil {
			b.Fatal(err)
		}
	}
}

// abovenetPlan routes the paper scenario fractionally: Abovenet, 54 items
// with Zipf-like rates at every edge node, and 9 edge caches of 12 slots
// filled by the greedy placement.
func abovenetPlan(tb testing.TB) (*placement.Spec, *placement.Placement, *routing.Result) {
	const items, slots = 54, 12
	rng := rand.New(rand.NewSource(1))
	net := topo.Abovenet(1)
	net.AssignCosts(rng, 100, 200, 1, 20)
	n := net.G.NumNodes()
	s := &placement.Spec{G: net.G, NumItems: items, CacheCap: make([]float64, n), Pinned: []graph.NodeID{net.Origin}, Rates: make([][]float64, items)}
	for i := range s.Rates {
		s.Rates[i] = make([]float64, n)
		for _, v := range net.Edges {
			s.Rates[i][v] = (0.5 + rng.Float64()) / math.Pow(float64(i+1), 0.8)
		}
	}
	for _, v := range net.Edges {
		s.CacheCap[v] = slots
	}
	gr, err := placement.Greedy(s, graph.AllPairs(s.G))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := routing.Route(nil, s, gr.Placement, routing.Options{Fractional: true, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return s, gr.Placement, res
}
