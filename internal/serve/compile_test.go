package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/topo"
)

// refCompile is Compile as it was before the counting sort: it groups the
// routes with a stable comparison sort whose comparator recomputes both
// group keys. It is the oracle of TestCompileMatchesReference.
func refCompile(s *placement.Spec, pl *placement.Placement, paths []placement.ServingPath, epoch uint64, createdAt int64) (*CompiledPlan, error) {
	n, items := s.G.NumNodes(), s.NumItems
	if len(pl.Stores) != n {
		return nil, fmt.Errorf("serve: placement covers %d nodes, graph has %d", len(pl.Stores), n)
	}
	p := &CompiledPlan{
		Epoch:       epoch,
		CreatedAt:   createdAt,
		NumNodes:    n,
		NumItems:    items,
		storeStride: (items + 63) / 64,
	}
	p.paths = newPathTable(s.G, len(paths))
	p.arcCost = make([]float64, s.G.NumArcs())
	for id := range p.arcCost {
		p.arcCost[id] = s.G.Arc(id).Cost
	}
	p.stores = make([]uint64, n*p.storeStride)
	for v := 0; v < n; v++ {
		row := pl.Stores[v]
		if len(row) != items {
			return nil, fmt.Errorf("serve: node %d stores %d item slots, catalog has %d", v, len(row), items)
		}
		for i, has := range row {
			if has {
				p.stores[v*p.storeStride+i>>6] |= 1 << (uint(i) & 63)
			}
		}
	}
	order := make([]int, len(paths))
	for k := range order {
		order[k] = k
	}
	group := func(k int) (int, error) {
		rq := paths[k].Req
		if rq.Item < 0 || rq.Item >= items || rq.Node < 0 || rq.Node >= n {
			return 0, fmt.Errorf("serve: serving path %d references request (%d,%d) out of range", k, rq.Item, rq.Node)
		}
		return rq.Node*items + rq.Item, nil
	}
	for k := range paths {
		if _, err := group(k); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		ga, _ := group(order[a])
		gb, _ := group(order[b])
		return ga < gb
	})
	p.groupOff = make([]int32, n*items+1)
	p.groupRate = make([]float64, n*items)
	p.routeRate = make([]float64, 0, len(paths))
	p.routeReplica = make([]int32, 0, len(paths))
	p.routeCost = make([]float64, 0, len(paths))
	prevGroup := 0
	for _, k := range order {
		sp := &paths[k]
		g, _ := group(k)
		for ; prevGroup < g; prevGroup++ {
			p.groupOff[prevGroup+1] = int32(len(p.routeRate))
		}
		if sp.Rate < 0 || math.IsNaN(sp.Rate) {
			return nil, fmt.Errorf("serve: serving path %d has invalid rate %v", k, sp.Rate)
		}
		replica := sp.Req.Node
		var cost float64
		if len(sp.Path.Arcs) > 0 {
			if err := sp.Path.Validate(s.G, sp.Path.Source(s.G), sp.Req.Node); err != nil {
				return nil, fmt.Errorf("serve: serving path %d for request (%d,%d): %w", k, sp.Req.Item, sp.Req.Node, err)
			}
			replica = sp.Path.Source(s.G)
			cost = sp.Path.Cost(s.G)
		}
		if !pl.Stores[replica][sp.Req.Item] {
			return nil, fmt.Errorf("serve: serving path %d for request (%d,%d) originates at %d, which stores no replica", k, sp.Req.Item, sp.Req.Node, replica)
		}
		p.routeRate = append(p.routeRate, sp.Rate)
		p.routeReplica = append(p.routeReplica, int32(replica))
		p.routeCost = append(p.routeCost, cost)
		p.groupRate[g] += sp.Rate
		p.paths.appendPath(sp.Path.Arcs)
	}
	for ; prevGroup < n*items; prevGroup++ {
		p.groupOff[prevGroup+1] = int32(len(p.routeRate))
	}
	if err := p.SelfCheck(); err != nil {
		return nil, fmt.Errorf("serve: compiled plan fails self-check: %w", err)
	}
	return p, nil
}

// samePlan reports the first field in which two plans differ, floats by
// their bits, or "" when they agree field by field.
func samePlan(got, want *CompiledPlan) string {
	if !reflect.DeepEqual(got, want) {
		g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
		for f := 0; f < g.NumField(); f++ {
			if !reflect.DeepEqual(g.Field(f).Interface(), w.Field(f).Interface()) {
				return "field " + g.Type().Field(f).Name
			}
		}
		return "plans differ"
	}
	for name, pair := range map[string][2][]float64{
		"groupRate": {got.groupRate, want.groupRate},
		"routeRate": {got.routeRate, want.routeRate},
		"routeCost": {got.routeCost, want.routeCost},
		"arcCost":   {got.arcCost, want.arcCost},
	} {
		for k := range pair[0] {
			if math.Float64bits(pair[0][k]) != math.Float64bits(pair[1][k]) {
				return fmt.Sprintf("%s[%d] bits", name, k)
			}
		}
	}
	return ""
}

// TestCompileMatchesReference checks Compile against the comparison-sort
// reference on shuffled, split and corrupted serving paths: the same error
// text, or plans equal field by field with floats equal by their bits.
func TestCompileMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	compiled, refused := 0, 0
	for trial := 0; trial < 300; trial++ {
		s := randomSpec(r)
		pl, paths := solveRNR(t, s)
		// Split some requests over two routes and shuffle the paths, so
		// groups interleave and the sort's stability shows.
		for k := range paths {
			if r.Intn(3) == 0 {
				paths[k].Rate /= 3
				paths = append(paths, paths[k])
				paths[len(paths)-1].Rate *= 2
			}
		}
		r.Shuffle(len(paths), func(a, b int) { paths[a], paths[b] = paths[b], paths[a] })
		if trial%2 == 1 && len(paths) > 0 {
			sp := &paths[r.Intn(len(paths))]
			switch r.Intn(4) {
			case 0:
				sp.Req.Node = s.G.NumNodes()
			case 1:
				sp.Rate = math.NaN()
			case 2:
				sp.Req.Node = (sp.Req.Node + 1) % s.G.NumNodes()
			default:
				sp.Path.Arcs = nil
			}
		}
		got, err := Compile(s, pl, paths, 7, 11)
		want, refErr := refCompile(s, pl, paths, 7, 11)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("trial %d: error %v, reference %v", trial, err, refErr)
		}
		if err != nil {
			refused++
			continue
		}
		if d := samePlan(got, want); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
		compiled++
	}
	if compiled == 0 || refused == 0 {
		t.Fatalf("%d plans compiled and %d refused; both must occur", compiled, refused)
	}
}

// BenchmarkCompile compiles a drift-sized plan (see abovenetPlan), the
// route table every replan builds.
func BenchmarkCompile(b *testing.B) {
	s, pl, res := abovenetPlan(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(s, pl, res.Paths, 1, 0); err != nil {
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
