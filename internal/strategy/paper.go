package strategy

import (
	"context"
	"fmt"
	"math"

	"jcr/internal/exact"
	"jcr/internal/graph"
	"jcr/internal/msufp"
	"jcr/internal/placement"
)

// capSlack absorbs floating-point residue when comparing item sizes and
// occupancies against cache capacities (mirrors the placement package).
const capSlack = 1e-9

func init() {
	register("alg1", "Algorithm 1: pipage-rounded placement (greedy under heterogeneous sizes) + nearest-replica serving",
		func(o Options) Strategy { return &Alg1{BestEffort: o.BestEffort} })
	register("alg2", "Algorithm 2: MSUFP demand rounding under binary cache capacities (full replicas + origin)",
		func(o Options) Strategy { return &Alg2{BestEffort: o.BestEffort, K: o.RoundingTrials} })
	register("exact", "brute-force IC-IR optimum (tiny instances only)",
		func(o Options) Strategy { return &Exact{} })
}

// Alg1 is the paper's placement-first pipeline behind the Strategy
// interface: Algorithm 1's pipage-rounded placement under the
// route-to-nearest-replica relaxation (the Section 5 greedy when item
// sizes are heterogeneous, exactly as the paper's file-level evaluation),
// then capacity-oblivious nearest-replica serving. Link congestion is
// whatever falls out — the infeasibility the paper demonstrates for
// capacity-blind schemes.
type Alg1 struct {
	// BestEffort declares requests with no reachable replica in
	// Plan.Unserved instead of failing on a partitioned network.
	BestEffort bool
}

// Name implements Strategy.
func (a *Alg1) Name() string { return "alg1" }

// Decide implements Strategy.
func (a *Alg1) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "alg1"); err != nil {
		return nil, Stats{}, err
	}
	spec := inst.Spec
	dist := inst.Distances()
	var pl *placement.Placement
	method := "alg1/pipage"
	if spec.ItemSize == nil {
		res, err := placement.Alg1(spec, dist)
		if err != nil {
			return nil, Stats{}, err
		}
		pl = res.Placement
	} else {
		method = "greedy"
		res, err := placement.Greedy(spec, dist)
		if err != nil {
			return nil, Stats{}, err
		}
		pl = res.Placement
	}
	if err := pollCtx(ctx, "alg1 serving"); err != nil {
		return nil, Stats{}, err
	}
	paths, unserved := rnrServe(spec, pl, dist)
	if len(unserved) > 0 && !a.BestEffort {
		return nil, Stats{}, fmt.Errorf("strategy: alg1: %d requests unreachable (set BestEffort to serve partially)", len(unserved))
	}
	return finishPlan(spec, &Plan{Placement: pl, Paths: paths, Unserved: unserved}), Stats{Iterations: 1, Method: method}, nil
}

// Alg2 is the paper's Algorithm 2 behind the Strategy interface, for the
// binary-capacity regime of Section 4.2: nodes either hold the full
// catalog or nothing. The placement fills every cache large enough for the
// whole catalog; routing reduces to MSUFP on the Lemma 4.5 virtual-source
// graph over those full replicas and is solved by Algorithm 2's demand
// rounding (optimal splittable flow, per-class Lemma 4.6 unsplitting). On
// specs whose caches cannot hold the catalog it degenerates to
// origin-only routing — Alg. 2's honest behavior outside its regime.
type Alg2 struct {
	// BestEffort declares requests with no reachable replica in
	// Plan.Unserved instead of failing on a partitioned network.
	BestEffort bool
	// K is the number of demand classes (Eq. 12); zero means 1000, the
	// paper's evaluation setting (K=2 reproduces Skutella [33]).
	K int
}

// Name implements Strategy.
func (a *Alg2) Name() string { return "alg2" }

// Decide implements Strategy.
func (a *Alg2) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "alg2"); err != nil {
		return nil, Stats{}, err
	}
	spec := inst.Spec
	var catalog float64
	for i := 0; i < spec.NumItems; i++ {
		catalog += spec.Size(i)
	}
	// Full replicas: pinned origins plus every cache that fits the whole
	// catalog (the binary c_v in {0, |C|} regime).
	pl := spec.NewPlacement()
	full := make([]bool, spec.G.NumNodes())
	for _, v := range spec.Pinned {
		full[v] = true
	}
	for v := 0; v < spec.G.NumNodes(); v++ {
		if full[v] || spec.CacheCap[v]+capSlack < catalog {
			continue
		}
		full[v] = true
		for i := 0; i < spec.NumItems; i++ {
			pl.Stores[v][i] = true
		}
	}
	var replicas []graph.NodeID
	for v, ok := range full {
		if ok {
			replicas = append(replicas, v)
		}
	}
	// Requests, minus the ones no replica reaches (best-effort only).
	reqs := spec.Requests()
	var unserved map[placement.Request]float64
	if a.BestEffort {
		dist := inst.Distances()
		kept := reqs[:0]
		for _, rq := range reqs {
			reachable := false
			for _, u := range replicas {
				if !math.IsInf(dist[u][rq.Node], 1) {
					reachable = true
					break
				}
			}
			if reachable {
				kept = append(kept, rq)
				continue
			}
			if unserved == nil {
				unserved = map[placement.Request]float64{}
			}
			unserved[rq] += spec.Rates[rq.Item][rq.Node]
		}
		reqs = kept
	}
	if len(reqs) == 0 {
		return finishPlan(spec, &Plan{Placement: pl, Unserved: unserved}), Stats{Iterations: 1, Method: "alg2"}, nil
	}
	// Lemma 4.5: one virtual source over all full replicas turns the
	// joint problem into a single-source MSUFP instance.
	aux := graph.NewAuxiliary(spec.G, [][]graph.NodeID{replicas})
	comms := make([]msufp.Commodity, len(reqs))
	for k, rq := range reqs {
		comms[k] = msufp.Commodity{Dest: rq.Node, Demand: spec.Rates[rq.Item][rq.Node]}
	}
	minst := &msufp.Instance{G: aux.G, Source: aux.VirtualSource[0], Commodities: comms}
	k := a.K
	if k <= 0 {
		k = 1000
	}
	if err := pollCtx(ctx, "alg2 routing"); err != nil {
		return nil, Stats{}, err
	}
	asgn, err := msufp.SolveAlg2(minst, k)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("strategy: alg2: %w", err)
	}
	paths := make([]placement.ServingPath, len(reqs))
	for idx, rq := range reqs {
		base, _ := aux.StripVirtual(asgn.Paths[idx])
		paths[idx] = placement.ServingPath{Req: rq, Path: base, Rate: spec.Rates[rq.Item][rq.Node]}
	}
	return finishPlan(spec, &Plan{Placement: pl, Paths: paths, Unserved: unserved}), Stats{Iterations: 1, Method: "alg2"}, nil
}

// Exact is the brute-force IC-IR reference solver behind the Strategy
// interface. It is exponential: Fits gates the arena to instances the
// enumeration can afford.
type Exact struct{}

// Name implements Strategy.
func (e *Exact) Name() string { return "exact" }

// Fits implements Sized.
func (e *Exact) Fits(inst Instance) bool { return exact.Fits(inst.Spec) }

// Decide implements Strategy.
func (e *Exact) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	res, err := exact.SolveICIR(ctx, inst.Spec)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: res.Placement, Paths: res.Paths}), Stats{Iterations: 1, Method: "brute-force"}, nil
}
