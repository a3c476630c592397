package strategy

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// conformanceSpec builds a randomized small instance: a ring-with-chords
// network, a pinned origin, a couple of caches, and random demand. Small
// enough that every registered strategy — including the brute-force exact
// solver — fits, and generously provisioned so none needs best-effort
// escape hatches.
func conformanceSpec(r *rand.Rand) *placement.Spec {
	const nodes = 6
	const items = 3
	g := graph.New(nodes)
	for v := 0; v < nodes; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%nodes), 1+r.Float64()*9, 100)
	}
	// Two random chords keep path enumeration interesting but bounded.
	for c := 0; c < 2; c++ {
		u := graph.NodeID(r.Intn(nodes))
		w := graph.NodeID(r.Intn(nodes))
		if u != w {
			g.AddEdge(u, w, 1+r.Float64()*9, 100)
		}
	}
	cacheCap := make([]float64, nodes)
	cacheCap[2] = float64(1 + r.Intn(2))
	cacheCap[4] = float64(1 + r.Intn(2))
	rates := make([][]float64, items)
	for i := range rates {
		rates[i] = make([]float64, nodes)
	}
	for k := 0; k < 4; k++ {
		rates[r.Intn(items)][1+r.Intn(nodes-1)] += 1 + r.Float64()*4
	}
	return &placement.Spec{
		G:        g,
		NumItems: items,
		CacheCap: cacheCap,
		Pinned:   []graph.NodeID{0},
		Rates:    rates,
	}
}

// planFingerprint reduces a plan to a comparable value: the placement,
// the (request, nodes, rate) of every path, the unserved map, and the
// predicted metrics.
func planFingerprint(s *placement.Spec, p *Plan) string {
	return fmt.Sprintf("%v|%v|%v|%.12g|%.12g", p.Placement.Stores, pathTriples(s, p), p.Unserved, p.Cost, p.MaxUtilization)
}

func pathTriples(s *placement.Spec, p *Plan) [][3]interface{} {
	out := make([][3]interface{}, 0, len(p.Paths))
	for _, sp := range p.Paths {
		out = append(out, [3]interface{}{sp.Req, sp.Path.Nodes(s.G), sp.Rate})
	}
	return out
}

// TestConformance is the registry-wide contract: every registered
// strategy, on every randomized small spec, returns a plan that passes
// the uniform Validate, refuses a pre-canceled context, and reproduces
// the same plan when rebuilt with the same options.
func TestConformance(t *testing.T) {
	specs := make([]*placement.Spec, 4)
	for k := range specs {
		specs[k] = conformanceSpec(rng.Derive(7, int64(k)))
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			for k, spec := range specs {
				opts := Options{Seed: 11}
				st, err := New(name, opts)
				if err != nil {
					t.Fatalf("New: %v", err)
				}
				inst := Instance{Spec: spec}
				if sized, ok := st.(Sized); ok && !sized.Fits(inst) {
					t.Fatalf("spec %d: conformance specs must fit every strategy", k)
				}
				plan, stats, err := st.Decide(context.Background(), inst)
				if err != nil {
					t.Fatalf("spec %d: Decide: %v", k, err)
				}
				if err := Validate(inst, plan); err != nil {
					t.Errorf("spec %d: invalid plan: %v", k, err)
				}
				if stats.Iterations < 1 {
					t.Errorf("spec %d: stats report %d iterations", k, stats.Iterations)
				}
				if plan.UnservedMass() > 0 {
					t.Errorf("spec %d: %v unserved on a generously provisioned instance", k, plan.UnservedMass())
				}
				// Refuses a pre-canceled context (fresh strategy: no
				// carried state can answer from cache).
				st2 := MustNew(name, opts)
				if _, _, err := st2.Decide(canceled, inst); err == nil {
					t.Errorf("spec %d: Decide ignored a canceled context", k)
				}
				// Deterministic: a rebuilt strategy reproduces the plan.
				st3 := MustNew(name, opts)
				plan3, _, err := st3.Decide(context.Background(), inst)
				if err != nil {
					t.Fatalf("spec %d: repeat Decide: %v", k, err)
				}
				if a, b := planFingerprint(spec, plan), planFingerprint(spec, plan3); a != b {
					t.Errorf("spec %d: nondeterministic plan:\n%s\n%s", k, a, b)
				}
			}
		})
	}
}

// TestEqualSizeBaselinesOnFileLevel runs the equal-size baselines of
// Section 6 on file-level specs (heterogeneous item sizes, caches sized in
// average files). Each must decide, hold at most floor(CacheCap / mean
// size) items per cache, and return a plan that is valid when every item
// counts as one slot; byte capacities may overflow, the infeasibility the
// paper's Fig. 5 shows.
func TestEqualSizeBaselinesOnFileLevel(t *testing.T) {
	for k := 0; k < 4; k++ {
		r := rng.Derive(9, int64(k))
		spec := conformanceSpec(r)
		// Every node requests every item, so each cache (1-2 slots for 3
		// items) would take more items than its slots if it could.
		for i := range spec.Rates {
			for v := 1; v < len(spec.Rates[i]); v++ {
				spec.Rates[i][v] = 1 + r.Float64()*4
			}
		}
		spec.ItemSize = make([]float64, spec.NumItems)
		var mean float64
		for i := range spec.ItemSize {
			spec.ItemSize[i] = 50 + r.Float64()*850
			mean += spec.ItemSize[i]
		}
		mean /= float64(spec.NumItems)
		slots := &placement.Spec{G: spec.G, NumItems: spec.NumItems, Pinned: spec.Pinned, Rates: spec.Rates,
			CacheCap: make([]float64, len(spec.CacheCap))}
		for v, c := range spec.CacheCap {
			slots.CacheCap[v] = c // item slots, as conformanceSpec draws them
			spec.CacheCap[v] = c * mean
		}
		for _, st := range []Strategy{MustNew("sp", Options{}), MustNew("ksp", Options{}), &KSP{K: 1}} {
			plan, _, err := st.Decide(context.Background(), Instance{Spec: spec})
			if err != nil {
				t.Fatalf("spec %d: %s: %v", k, st.Name(), err)
			}
			if err := Validate(Instance{Spec: slots}, plan); err != nil {
				t.Errorf("spec %d: %s: plan invalid in item slots: %v", k, st.Name(), err)
			}
		}
	}
}

// TestKSPServesOriginRequestLocally: a request at the origin itself has one
// candidate route, the empty path. KSP3 and the ksp strategy must serve it
// as a local hit at cost 0 beside the remote requests.
func TestKSPServesOriginRequestLocally(t *testing.T) {
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, 1, 10)
	spec := &placement.Spec{
		G: g, NumItems: 1, CacheCap: []float64{0, 1, 0}, Pinned: []graph.NodeID{0},
		Rates: [][]float64{{2, 0, 1}},
	}
	local := placement.Request{Item: 0, Node: 0}
	res, err := placement.KSP3(spec, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := MustNew("ksp", Options{}).Decide(context.Background(), Instance{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]*Plan{"KSP3": {Placement: res.Placement, Paths: res.Chosen}, "ksp": plan} {
		paths := got.Paths
		if len(paths) != 2 {
			t.Fatalf("%s: %d serving paths, want 2", name, len(paths))
		}
		for _, sp := range paths {
			if sp.Req == local && (sp.Path.Len() != 0 || sp.Rate != 2) {
				t.Errorf("%s: origin request served over %v at rate %v, want a local hit at rate 2", name, sp.Path.Arcs, sp.Rate)
			}
		}
		cost, _, _ := placement.EvaluateServing(spec, paths, got.Placement)
		if cost != 1 { // node 2 from node 1's replica; the local hit is free
			t.Errorf("%s: cost %v, want 1", name, cost)
		}
	}
}

// TestConformanceRoster pins the registry roster: the paper's algorithms,
// its Section 6 baselines
// (sp, ksp, rnr), and the three related-work baselines.
func TestConformanceRoster(t *testing.T) {
	want := []string{"alg1", "alg2", "alternating", "cachenet-random", "exact", "iy-fixedpath", "ksp", "mindelay", "rnr", "sp"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry roster = %v, want %v", got, want)
	}
	for _, name := range want {
		if Doc(name) == "" {
			t.Errorf("strategy %s has no doc line", name)
		}
	}
}

// partitionSpec is a connected 6-node ring holding the origin and both
// caches, plus a detached pair {6, 7} with no origin and no cache whose
// node 7 requests both items: that requester's demand can only be
// declared unserved.
func partitionSpec() (*placement.Spec, map[placement.Request]float64) {
	const nodes = 8
	const items = 2
	g := graph.New(nodes)
	for v := 0; v < 6; v++ {
		g.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%6), float64(1+v%3), 100)
	}
	g.AddEdge(6, 7, 1, 100)
	cacheCap := make([]float64, nodes)
	cacheCap[2], cacheCap[4] = 1, 1
	rates := [][]float64{
		{0, 2, 0, 1, 0, 3, 0, 4},
		{0, 0, 1, 2, 0, 1, 0, 2.5},
	}
	spec := &placement.Spec{G: g, NumItems: items, CacheCap: cacheCap, Pinned: []graph.NodeID{0}, Rates: rates}
	stranded := map[placement.Request]float64{{Item: 0, Node: 7}: 4, {Item: 1, Node: 7}: 2.5}
	return spec, stranded
}

// TestFaultPartitionBestEffort runs every registered strategy on a
// partitioned network: with BestEffort the plan is valid and declares
// exactly the cut-off requester's demand unserved; without it, Decide
// fails rather than silently dropping demand.
func TestFaultPartitionBestEffort(t *testing.T) {
	spec, stranded := partitionSpec()
	inst := Instance{Spec: spec}
	// Strategies without a best-effort mode, and why; they must still
	// refuse the spec.
	noBestEffort := map[string]string{
		"exact": "the brute-force IC-IR optimum is defined only when every request can be served, so exact reports a partitioned spec infeasible",
	}
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			if reason, ok := noBestEffort[name]; ok {
				if _, _, err := MustNew(name, Options{Seed: 11, BestEffort: true}).Decide(context.Background(), inst); err == nil {
					t.Errorf("exempt (%s), yet Decide accepted a partitioned network", reason)
				}
				return
			}
			plan, _, err := MustNew(name, Options{Seed: 11, BestEffort: true}).Decide(context.Background(), inst)
			if err != nil {
				t.Fatalf("best effort: Decide: %v", err)
			}
			if err := Validate(inst, plan); err != nil {
				t.Errorf("best effort: invalid plan: %v", err)
			}
			if !reflect.DeepEqual(plan.Unserved, stranded) {
				t.Errorf("best effort: unserved %v, want %v", plan.Unserved, stranded)
			}
			if _, _, err := MustNew(name, Options{Seed: 11}).Decide(context.Background(), inst); err == nil {
				t.Error("strict: Decide accepted a partitioned network")
			}
		})
	}
}
