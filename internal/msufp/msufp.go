// Package msufp solves the minimum-cost single-source unsplittable flow
// problem (MSUFP) that the joint caching and routing problem reduces to
// under binary cache capacities (paper Section 4.2). It provides:
//
//   - the optimal splittable flow lower bound (Algorithm 2, line 1),
//   - the Lemma 4.6 subroutine converting a splittable flow into an
//     unsplittable one when demands differ by powers of two (the
//     Dinitz-Garg-Goemans / Skutella construction), and
//   - the paper's Algorithm 2: demand rounding (Eq. 11), partitioning into
//     K demand classes (Eq. 12), and per-class conversion, achieving a
//     bicriteria (1+eps, 1)-approximation when the maximum demand is small
//     relative to link capacities (Theorem 4.7).
//
// The state-of-the-art baseline of Skutella [33] is the special case K=2,
// and the route-to-nearest-replica baseline of [3] is provided for the
// evaluation in Fig. 6.
package msufp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"jcr/internal/flow"
	"jcr/internal/graph"
)

// Commodity is one demand: route Demand units from the instance source to
// Dest on a single path.
type Commodity struct {
	Dest   graph.NodeID
	Demand float64
}

// Instance is an MSUFP instance (Definition 1 in the paper).
type Instance struct {
	G      *graph.Graph
	Source graph.NodeID
	// Commodities lists the demands; all share Source.
	Commodities []Commodity
	// Eng, when non-nil, serves the source's shortest-path tree from a
	// cross-instance cache (Fig. 6 solves one instance per virtual source
	// on the same auxiliary graph). Results are identical either way.
	Eng *graph.Engine
}

// ErrNoCommodities reports an instance without demands.
var ErrNoCommodities = errors.New("msufp: no commodities")

// Assignment routes each commodity on a single path.
type Assignment struct {
	// Paths[i] serves Commodities[i]; each path runs from the source to
	// the commodity destination.
	Paths []graph.Path
}

// Metrics summarizes an assignment's quality.
type Metrics struct {
	// Cost is sum_i lambda_i * sum_{e in p_i} w_e.
	Cost float64
	// Load[e] is the total demand routed over arc e.
	Load []float64
	// MaxUtilization is max_e Load[e]/c_e over capacitated arcs
	// (the congestion measure used in Fig. 6).
	MaxUtilization float64
}

// Evaluate computes cost and congestion of an assignment.
func (inst *Instance) Evaluate(a *Assignment) Metrics {
	m := Metrics{Load: make([]float64, inst.G.NumArcs())}
	for i, p := range a.Paths {
		d := inst.Commodities[i].Demand
		for _, id := range p.Arcs {
			m.Load[id] += d
			m.Cost += d * inst.G.Arc(id).Cost
		}
	}
	for id, load := range m.Load {
		c := inst.G.Arc(id).Cap
		if math.IsInf(c, 1) || c <= 0 {
			continue
		}
		if u := load / c; u > m.MaxUtilization {
			m.MaxUtilization = u
		}
	}
	return m
}

// Validate checks that every path actually connects the source to its
// commodity's destination.
func (inst *Instance) Validate(a *Assignment) error {
	if len(a.Paths) != len(inst.Commodities) {
		return fmt.Errorf("msufp: %d paths for %d commodities", len(a.Paths), len(inst.Commodities))
	}
	for i, p := range a.Paths {
		if err := p.Validate(inst.G, inst.Source, inst.Commodities[i].Dest); err != nil {
			return fmt.Errorf("msufp: commodity %d: %w", i, err)
		}
	}
	return nil
}

// TotalDemand sums the commodity demands.
func (inst *Instance) TotalDemand() float64 {
	var t float64
	for _, c := range inst.Commodities {
		t += c.Demand
	}
	return t
}

// SplittableOptimum computes the minimum-cost splittable flow satisfying
// all demands within the arc capacities (Algorithm 2, line 1) via a
// super-sink min-cost flow. The sink arcs go in ascending node order, so
// equal-cost ties resolve the same way on every call. The returned arc
// flow is indexed by the instance graph's arc IDs. A done ctx aborts the
// flow with an error wrapping ctx.Err(); nil means no cancellation.
func (inst *Instance) SplittableOptimum(ctx context.Context) (*flow.Result, error) {
	if len(inst.Commodities) == 0 {
		return nil, ErrNoCommodities
	}
	demand := make([]float64, inst.G.NumNodes())
	for _, c := range inst.Commodities {
		demand[c.Dest] += c.Demand
	}
	gg := inst.G.Clone()
	super := gg.AddNode()
	for t, d := range demand {
		if d > 0 {
			gg.AddArc(t, super, 0, d)
		}
	}
	// The value is summed in commodity order: flow.MinCostFlowToSinks
	// would sum the sink amounts in node order instead, and that last-bit
	// difference moves Alg. 2's rounding on some instances.
	res, err := flow.MinCostFlow(ctx, gg, inst.Source, super, inst.TotalDemand())
	if err != nil {
		return nil, fmt.Errorf("msufp: splittable optimum: %w", err)
	}
	return &flow.Result{
		Arc:   res.Arc[:inst.G.NumArcs()],
		Value: res.Value,
		Cost:  res.Cost,
	}, nil
}

// RoundDemand applies the paper's Eq. (11): round lambda down to
// lambdaMax * 2^(floor(K*log2(lambda/lambdaMax))/K), with the maximum
// demand rounded to lambdaMax * 2^(-1/K).
func RoundDemand(lambda, lambdaMax float64, k int) float64 {
	return math.Pow(2, -float64(demandLevel(lambda, lambdaMax, k))/float64(k)) * lambdaMax
}

// demandLevel returns L >= 1 such that the rounded demand is
// lambdaMax * 2^(-L/K). Demands equal to lambdaMax use L=1 per Eq. (11).
func demandLevel(lambda, lambdaMax float64, k int) int {
	if lambda >= lambdaMax*(1-topLevelTol) {
		return 1
	}
	l := -int(math.Floor(float64(k) * math.Log2(lambda/lambdaMax)))
	if l < 1 {
		l = 1
	}
	return l
}

// ClassOf returns the class index j in 0..K-1 of Eq. (12) for a demand:
// the class is chosen so that (j + L) is a multiple of K, putting the
// maximum demand in class K-1.
func ClassOf(lambda, lambdaMax float64, k int) int {
	l := demandLevel(lambda, lambdaMax, k)
	return (k - l%k) % k
}
