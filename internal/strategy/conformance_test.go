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

// TestConformanceRoster pins the registry roster: the paper's algorithms
// (with the partition-aware decomposed pipeline), its Section 6 baselines
// (sp, ksp, rnr), and the three related-work baselines.
func TestConformanceRoster(t *testing.T) {
	want := []string{"alg1", "alg2", "alternating", "cachenet-random", "decomposed", "exact", "iy-fixedpath", "ksp", "mindelay", "rnr", "sp"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry roster = %v, want %v", got, want)
	}
	for _, name := range want {
		if Doc(name) == "" {
			t.Errorf("strategy %s has no doc line", name)
		}
	}
}
