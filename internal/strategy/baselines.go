package strategy

import (
	"context"
	"fmt"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// kspPaths is the number of candidate paths per request of the [3]
// baseline: 3, the paper's evaluation setting.
const kspPaths = 3

func init() {
	register("sp", "SP [38]: per-path placement on the origin's shortest-path tree, served along those paths",
		func(Options) Strategy { return &SP{} })
	register("ksp", "k-SP [3] (k = 3): joint placement over each request's 3 least-cost origin paths",
		func(Options) Strategy { return &KSP{} })
	register("rnr", "greedy placement + capacity-oblivious route-to-nearest-replica serving",
		func(Options) Strategy { return &RNR{} })
}

// SP is the paper's SP [38] baseline of Section 6: placement maximizes
// the per-path saving along the origin's shortest-path tree and every
// request is served along its tree path. The origin is the spec's single
// pinned node.
type SP struct{}

// Name implements Strategy.
func (*SP) Name() string { return "sp" }

// Decide implements Strategy.
func (*SP) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "sp"); err != nil {
		return nil, Stats{}, err
	}
	origin, err := soleOrigin(inst.Spec, "sp")
	if err != nil {
		return nil, Stats{}, err
	}
	pl, paths, err := placement.SP38(ctx, inst.Spec, origin, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: pl, Paths: paths}), Stats{Iterations: 1, Method: "sp38"}, nil
}

// KSP is the paper's k-SP [3] baseline of Section 6 with k = 3: placement
// jointly over each request's k least-cost paths from the origin, each
// request served along its best candidate under the placement. The origin
// is the spec's single pinned node.
type KSP struct{}

// Name implements Strategy.
func (*KSP) Name() string { return "ksp" }

// Decide implements Strategy.
func (*KSP) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "ksp"); err != nil {
		return nil, Stats{}, err
	}
	origin, err := soleOrigin(inst.Spec, "ksp")
	if err != nil {
		return nil, Stats{}, err
	}
	res, err := placement.KSP3(inst.Spec, origin, kspPaths, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: res.Placement, Paths: res.Chosen}), Stats{Iterations: 1, Method: "ksp3"}, nil
}

// RNR places content greedily and routes every request from its nearest
// replica, capacity-obliviously: the cheap baseline whose congestion the
// online experiment contrasts with the joint optimizer.
type RNR struct{}

// Name implements Strategy.
func (*RNR) Name() string { return "rnr" }

// Decide implements Strategy.
func (*RNR) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if err := pollCtx(ctx, "rnr"); err != nil {
		return nil, Stats{}, err
	}
	dist := inst.Distances()
	res, err := placement.Greedy(inst.Spec, dist)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := pollCtx(ctx, "rnr serving"); err != nil {
		return nil, Stats{}, err
	}
	paths, err := placement.GlobalRNRServing(inst.Spec, res.Placement, dist)
	if err != nil {
		return nil, Stats{}, err
	}
	return finishPlan(inst.Spec, &Plan{Placement: res.Placement, Paths: paths}), Stats{Iterations: 1, Method: "greedy+rnr"}, nil
}

// soleOrigin returns the spec's single pinned node, the server the
// fixed-path baselines root their candidate paths at. Specs with no or
// several pinned nodes are refused rather than guessed at.
func soleOrigin(s *placement.Spec, name string) (graph.NodeID, error) {
	if len(s.Pinned) != 1 {
		return 0, fmt.Errorf("strategy: %s needs exactly one pinned origin, spec pins %d", name, len(s.Pinned))
	}
	return s.Pinned[0], nil
}

// Static decides once, on the first instance it sees, and replays that
// plan on every later Decide: the churn-free baseline of the online
// experiment. It wraps another strategy and is not registered.
type Static struct {
	Inner Strategy

	plan  *Plan
	stats Stats
}

// Name implements Strategy.
func (s *Static) Name() string { return "static-" + s.Inner.Name() }

// Decide implements Strategy.
func (s *Static) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	if s.plan == nil {
		plan, stats, err := s.Inner.Decide(ctx, inst)
		if err != nil {
			return nil, Stats{}, err
		}
		s.plan, s.stats = plan, stats
	}
	return s.plan, s.stats, nil
}
