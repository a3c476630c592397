// Package jcr is the public facade of the joint caching and routing
// library, a from-scratch Go reproduction of Xie, Thakkar, He, McDaniel,
// and Burke, "Joint Caching and Routing in Cache Networks with Arbitrary
// Topology" (ICDCS 2022, extended version).
//
// The library jointly optimizes content placement and request routing in a
// directed cache network to minimize total routing cost under cache and
// link capacity constraints. It provides:
//
//   - Algorithm 1: (1-1/e)-approximate integral caching under unlimited
//     link capacities via an auxiliary LP and pipage rounding (Alg1).
//   - Algorithm 2: a bicriteria (1+eps, 1)-approximation for the
//     minimum-cost single-source unsplittable flow problem arising under
//     binary cache capacities (SolveMSUFP).
//   - The alternating caching/routing optimizer for general capacities
//     (the "alternating" Strategy), in both IC-IR and IC-FR regimes.
//   - The greedy 1/(1+p)-approximate placement for heterogeneous item
//     sizes (Greedy).
//   - The exact FC-FR linear program (SolveFCFR).
//   - The related-work baselines behind the same Strategy interface
//     (NewStrategy), validated uniformly (ValidatePlan).
//   - The full evaluation harness reproducing every table and figure of
//     the paper (Experiments, RunExperiment).
//
// Quick start:
//
//	net := jcr.Abovenet(1)
//	spec := &jcr.Spec{G: net.G, ...}
//	alt, _ := jcr.NewStrategy("alternating", jcr.StrategyOptions{})
//	plan, stats, err := alt.Decide(ctx, jcr.Instance{Spec: spec})
//
// See examples/ for complete programs and DESIGN.md for the system map.
package jcr

import (
	"context"

	"jcr/internal/core"
	"jcr/internal/experiments"
	"jcr/internal/graph"
	"jcr/internal/msufp"
	"jcr/internal/online"
	"jcr/internal/placement"
	"jcr/internal/routing"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// Core graph types.
type (
	// Graph is a directed multigraph with per-arc routing costs and
	// capacities.
	Graph = graph.Graph
	// Path is a sequence of arcs.
	Path = graph.Path
	// Network is an evaluation topology with origin/edge designations.
	Network = topo.Network
)

// NewGraph returns an empty graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// Unlimited marks an uncapacitated link.
var Unlimited = graph.Unlimited

// Problem and solution types.
type (
	// Spec describes a joint caching and routing instance: network,
	// cache capacities, item sizes, pinned origin nodes, and demand.
	Spec = placement.Spec
	// Request identifies a request type (item, requester).
	Request = placement.Request
	// Placement is an integral caching decision.
	Placement = placement.Placement
	// ServingPath carries one response path and its rate.
	ServingPath = placement.ServingPath
	// RoutingOptions configure the routing subproblem solver.
	RoutingOptions = routing.Options
)

// Alg1Result carries Algorithm 1's placement, RNR sources, and cost.
type Alg1Result = placement.Alg1Result

// GreedyResult carries the greedy placement's outputs.
type GreedyResult = placement.GreedyResult

// AllPairs computes the pairwise least-cost matrix used by the
// RNR-based algorithms.
func AllPairs(g *Graph) [][]float64 { return graph.AllPairs(g) }

// Alg1 runs the paper's Algorithm 1 (unlimited link capacities):
// integral caching and source selection with a (1-1/e) guarantee.
func Alg1(s *Spec, dist [][]float64) (*Alg1Result, error) {
	return placement.Alg1(nil, s, dist, placement.Alg1Options{})
}

// Greedy runs the greedy submodular placement; under heterogeneous item
// sizes it achieves 1/(1+p) of the optimal saving (Theorem 5.2).
func Greedy(s *Spec, dist [][]float64) (*GreedyResult, error) {
	return placement.Greedy(s, dist)
}

// Route solves the source-selection and routing subproblem for a fixed
// placement (MMSFP under fractional routing, MMUFP via randomized rounding
// under integral routing).
func Route(s *Spec, pl *Placement, opts RoutingOptions) (*routing.Result, error) {
	return routing.Route(nil, s, pl, opts)
}

// FCFRResult is the exact fractional-caching/fractional-routing optimum.
type FCFRResult = core.FCFRResult

// SolveFCFR solves the FC-FR regime exactly as a linear program.
func SolveFCFR(s *Spec) (*FCFRResult, error) { return core.SolveFCFR(nil, s) }

// MSUFP types (binary cache capacities, Section 4.2).
type (
	// MSUFPInstance is a minimum-cost single-source unsplittable flow
	// instance.
	MSUFPInstance = msufp.Instance
	// MSUFPCommodity is one demand of an MSUFP instance.
	MSUFPCommodity = msufp.Commodity
	// MSUFPAssignment routes each commodity on a single path.
	MSUFPAssignment = msufp.Assignment
)

// SolveMSUFP runs the paper's Algorithm 2 with parameter K; K=2 reproduces
// the prior state of the art [33], larger K reduces congestion.
func SolveMSUFP(inst *MSUFPInstance, k int) (*MSUFPAssignment, error) {
	return msufp.SolveAlg2(nil, inst, k)
}

// Evaluation topologies (synthetic stand-ins sized per the paper).
var (
	// Abovenet builds the default Section-6 evaluation network.
	Abovenet = topo.Abovenet
	// Abvt, Tinet and Deltacom match Table 5's sizes.
	Abvt     = topo.Abvt
	Tinet    = topo.Tinet
	Deltacom = topo.Deltacom
)

// Strategies: the joint caching-and-routing algorithms behind one
// interface (see internal/strategy).
type (
	// Strategy turns one demand spec into a placement plus serving
	// paths: the paper's algorithms and the Section 6 baselines.
	Strategy = strategy.Strategy
	// StrategyOptions configure a registered strategy.
	StrategyOptions = strategy.Options
	// Instance is one Decide's input: the demand spec, optionally its
	// all-pairs distances and a placement to seed warm-startable
	// strategies.
	Instance = strategy.Instance
	// Plan is one Decide's output: a placement, its serving paths, any
	// declared-unserved demand, and the predicted cost and congestion.
	Plan = strategy.Plan
)

// NewStrategy builds a registered strategy by name (for example
// "alternating", "sp", "ksp" or "rnr"); unknown names report the roster.
func NewStrategy(name string, opts StrategyOptions) (Strategy, error) {
	return strategy.New(name, opts)
}

// ValidatePlan checks a plan against the Eq. (1) feasibility invariants:
// cache capacities, full service of every request (minus declared
// unserved demand), real paths from replicas, and predicted cost and
// congestion that match the paths.
func ValidatePlan(inst Instance, p *Plan) error { return strategy.Validate(inst, p) }

// Online-operation types (hourly re-optimization; see internal/online).
type (
	// OnlineHour is one hour of workload (decision and truth demand).
	OnlineHour = online.HourInput
	// OnlineSeries is a strategy's simulated record.
	OnlineSeries = online.Series
)

// OnlineOptions harden the online simulation: per-decision deadlines,
// bounded retries, decision validation, and degraded fallback to the
// last-known-good placement.
type OnlineOptions = online.Options

// RunOnline replays a strategy over consecutive hours, serving the
// realized demand with decisions made on the (predicted) decision demand.
// With the zero options it is the strict replay, aborting on the first
// decision error; see OnlineOptions for the hardened loop.
func RunOnline(ctx context.Context, st Strategy, hours []OnlineHour, opts OnlineOptions) (*OnlineSeries, error) {
	return online.Run(ctx, st, hours, opts)
}

// ExperimentConfig carries the evaluation-harness knobs.
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the paper's Section-6 defaults (with a
// reduced Monte-Carlo count; see DESIGN.md).
func DefaultExperimentConfig() *ExperimentConfig { return experiments.DefaultConfig() }

// Experiments lists the reproduced tables and figures by id.
func Experiments() []experiments.Experiment { return experiments.Registry() }

// RunExperiment reproduces one table or figure by id and returns its
// rendered text. ctx, when non-nil, cancels long runs between solver
// iterations.
func RunExperiment(ctx context.Context, id string, cfg *ExperimentConfig) (string, error) {
	e, err := experiments.Lookup(id)
	if err != nil {
		return "", err
	}
	return e.Run(ctx, cfg)
}
