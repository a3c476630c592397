// Package strategy is the seam between the joint caching-and-routing
// solvers and everything that drives them. A Strategy turns one Instance
// (a demand spec on a possibly fault-degraded network) into one Plan (a
// placement plus serving paths), behind a uniform interface: the paper's
// algorithms (Alg. 1, Alg. 2, the Section 4.3.3 alternating optimizer, the
// brute-force exact solver) and the related-work baselines
// (Ioannidis-Yeh-style fixed-path caching, MinDelay-style joint
// forwarding+caching, CacheRateNetwork's random-cache-then-optimal-route)
// all register here, so the online controller, the serving control plane,
// the experiments, and the baseline arena can run any of them
// interchangeably. Plans are validated uniformly via internal/check
// (Validate), and every Decide threads its context into the underlying
// LP/flow/graph solvers (enforced by the strategy-ctx lint).
package strategy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"jcr/internal/check"
	"jcr/internal/graph"
	"jcr/internal/placement"
)

// costTol is the relative slack allowed between a plan's predicted cost
// (and congestion) and the values recomputed from its paths by
// placement.EvaluateServing.
const costTol = 1e-6

// Instance is one solve's input: the demand spec on the network to
// optimize for. Demand (Spec.Rates) and the fault state (Spec.G is the
// degraded graph, Spec.CacheCap the surviving caches) both live in the
// spec, exactly as the online controller's decision specs are built.
type Instance struct {
	// Spec is the placement problem: graph, catalog, cache capacities,
	// pinned origins, and request rates.
	Spec *placement.Spec
	// Dist is the all-pairs least-cost matrix of Spec.G. Optional: a
	// strategy that needs it computes it when nil (Distances).
	Dist [][]float64
	// Initial optionally seeds warm-startable strategies with a previous
	// placement (the online controller's hour-to-hour carry). Strategies
	// without warm-start semantics ignore it.
	Initial *placement.Placement
}

// Distances returns the instance's all-pairs matrix, computing it from the
// graph when the caller did not provide one.
func (inst Instance) Distances() [][]float64 {
	if inst.Dist != nil {
		return inst.Dist
	}
	return graph.AllPairs(inst.Spec.G)
}

// Plan is one solve's output.
type Plan struct {
	Placement *placement.Placement
	// Paths serve the requests; under fractional routing a request may
	// appear with several partial rates summing to its demand.
	Paths []placement.ServingPath
	// Unserved maps requests the plan knowingly leaves unserved (no
	// replica reachable, typically on a partitioned network) to their
	// demand rate. Nil when the plan serves everything.
	Unserved map[placement.Request]float64
	// Cost is the predicted total routing cost of the paths, in
	// placement.EvaluateServing semantics (Eq. 1a).
	Cost float64
	// MaxUtilization is the predicted worst link load-to-capacity ratio;
	// above 1 the plan exceeds some link capacity.
	MaxUtilization float64
}

// UnservedMass sums the plan's unserved demand. Keys are visited in
// sorted order so the float accumulation is deterministic (map iteration
// order is not).
func (p *Plan) UnservedMass() float64 {
	if len(p.Unserved) == 0 {
		return 0
	}
	keys := make([]placement.Request, 0, len(p.Unserved))
	for rq := range p.Unserved {
		keys = append(keys, rq)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Item != keys[b].Item {
			return keys[a].Item < keys[b].Item
		}
		return keys[a].Node < keys[b].Node
	})
	var u float64
	for _, rq := range keys {
		u += p.Unserved[rq]
	}
	return u
}

// Stats reports how a plan was computed.
type Stats struct {
	// Iterations counts the strategy's outer rounds (alternating rounds,
	// gradient steps, restarts); 1 for single-shot strategies.
	Iterations int
	// Method labels the dominant subroutine (e.g. the routing method).
	Method string
}

// Strategy is one joint caching-and-routing algorithm. Implementations
// must be deterministic given their configuration (Options.Seed) and must
// honor ctx cancellation by threading it into their solver calls.
type Strategy interface {
	// Name is the registry id, stable across runs.
	Name() string
	// Decide computes a plan for the instance. A nil ctx means no
	// cancellation.
	Decide(ctx context.Context, inst Instance) (*Plan, Stats, error)
}

// Sized is implemented by strategies with hard instance-size limits (the
// brute-force exact solver). The arena skips instances a strategy reports
// it cannot fit instead of recording a failure.
type Sized interface {
	Strategy
	// Fits reports whether the instance is within the strategy's limits.
	Fits(inst Instance) bool
}

// Validate checks a plan against the Eq. (1) feasibility invariants,
// uniformly for every strategy: the placement respects cache capacities,
// every positive-rate request is fully served by the paths (minus declared
// Unserved mass), every path is a real path of the graph ending at its
// requester and starting at a replica, and the plan's predicted Cost and
// MaxUtilization agree with the values recomputed from its paths.
func Validate(inst Instance, p *Plan) error {
	if p == nil || p.Placement == nil {
		return fmt.Errorf("strategy: nil plan")
	}
	if err := check.PartialFlow(inst.Spec, p.Placement, p.Paths, p.Unserved, true); err != nil {
		return fmt.Errorf("strategy: %w", err)
	}
	cost, _, util := placement.EvaluateServing(inst.Spec, p.Paths, p.Placement)
	if math.Abs(cost-p.Cost) > costTol*(1+math.Abs(cost)) {
		return fmt.Errorf("strategy: plan cost %.9g disagrees with recomputed %.9g", p.Cost, cost)
	}
	if math.Abs(util-p.MaxUtilization) > costTol*(1+math.Abs(util)) {
		return fmt.Errorf("strategy: plan congestion %.9g disagrees with recomputed %.9g", p.MaxUtilization, util)
	}
	return nil
}

// finishPlan fills a plan's predicted cost and congestion from its paths,
// the uniform semantics Validate checks against.
func finishPlan(s *placement.Spec, p *Plan) *Plan {
	cost, _, util := placement.EvaluateServing(s, p.Paths, p.Placement)
	p.Cost = cost
	p.MaxUtilization = util
	return p
}

// checkUnserved fails a solve that leaves requests unserved (no replica or
// origin reaches them) unless bestEffort lets the plan declare them.
func checkUnserved(name string, bestEffort bool, unserved map[placement.Request]float64) error {
	if len(unserved) > 0 && !bestEffort {
		return fmt.Errorf("strategy: %s: %d requests unreachable (set BestEffort to serve partially)", name, len(unserved))
	}
	return nil
}

// unservedOf maps the spec's requests that no path serves to their rates;
// nil when every request has a path.
func unservedOf(s *placement.Spec, paths []placement.ServingPath) map[placement.Request]float64 {
	served := make(map[placement.Request]bool, len(paths))
	for _, sp := range paths {
		served[sp.Req] = true
	}
	var out map[placement.Request]float64
	for _, rq := range s.Requests() {
		if !served[rq] {
			if out == nil {
				out = map[placement.Request]float64{}
			}
			out[rq] = s.Rates[rq.Item][rq.Node]
		}
	}
	return out
}

// pollCtx returns ctx's error, wrapped, when it is canceled; nil-safe.
func pollCtx(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("strategy: %s: %w", what, err)
	}
	return nil
}
