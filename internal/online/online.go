// Package online simulates the paper's operational setting (Section 6):
// a network provider adjusts caching and routing decisions on an hourly
// basis from predicted demand, then serves whatever demand actually
// arrives. Run walks a view trace hour by hour, re-optimizes with any
// strategy.Strategy (the paper's algorithms or the Section 6 baselines),
// and records per-hour routing cost, congestion, and placement churn
// (items moved between consecutive hours - the operational cost of
// re-optimizing that a one-shot evaluation cannot see).
//
// With zero Options, Run is the strict replay: it aborts on the first
// decision error. Non-zero Options harden the hourly control loop for
// degraded networks: each decision runs through strategy.Retry (a context
// deadline with bounded retry, and validation against the feasibility
// invariants of internal/check), and with Resilient any failure — timeout,
// solver error, infeasible output — degrades gracefully to the
// last-known-good placement with failed-link-aware nearest-replica
// rerouting instead of aborting the simulation. Per-hour degradation state
// (decision source, retries, unserved and unanticipated demand) is
// recorded in HourMetrics.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// rateEps is the request rate below which a decided total is treated as
// zero (the decision did not anticipate the request).
const rateEps = 1e-12

// DecisionSource records where an hour's applied decision came from.
type DecisionSource int

// Decision sources.
const (
	// SourceFresh is a successful decision from the strategy this hour.
	SourceFresh DecisionSource = iota
	// SourceStale means the strategy failed (error, timeout, or invalid
	// output) and the hour ran on the last-known-good placement with
	// nearest-replica rerouting.
	SourceStale
	// SourceRepaired is a fresh decision immediately after one or more
	// stale hours: the hour the controller recovered.
	SourceRepaired
)

func (s DecisionSource) String() string {
	switch s {
	case SourceFresh:
		return "fresh"
	case SourceStale:
		return "stale"
	case SourceRepaired:
		return "repaired"
	default:
		return fmt.Sprintf("DecisionSource(%d)", int(s))
	}
}

// HourMetrics records one simulated hour.
type HourMetrics struct {
	Hour       int
	Cost       float64
	Congestion float64
	// Churn counts (node, item) cache entries that changed versus the
	// previous hour's placement.
	Churn int
	// Demand is the total realized request rate of the hour.
	Demand float64
	// Unserved is the realized request rate the hour could not serve:
	// no replica of the item was reachable from the requester on the
	// (possibly degraded) network.
	Unserved float64
	// Unanticipated is the realized demand volume served through the
	// nearest-replica fallback because the decision did not anticipate
	// the request (its decided total was zero). Zero for stale hours,
	// where the whole hour runs on fallback routing by construction.
	Unanticipated float64
	// Source records whether the hour ran on a fresh, stale, or
	// just-repaired decision.
	Source DecisionSource
	// Retries counts failed Decide attempts before the applied one.
	Retries int
}

// Series is a strategy's full simulation record.
type Series struct {
	// Strategy is the name of the strategy that decided the hours.
	Strategy string
	Hours    []HourMetrics
}

// TotalCost sums the per-hour costs.
func (s *Series) TotalCost() float64 {
	var t float64
	for _, h := range s.Hours {
		t += h.Cost
	}
	return t
}

// MeanCongestion averages the per-hour congestion.
func (s *Series) MeanCongestion() float64 {
	if len(s.Hours) == 0 {
		return 0
	}
	var t float64
	for _, h := range s.Hours {
		t += h.Congestion
	}
	return t / float64(len(s.Hours))
}

// TotalChurn sums placement changes across hours.
func (s *Series) TotalChurn() int {
	t := 0
	for _, h := range s.Hours {
		t += h.Churn
	}
	return t
}

// ServedFraction is the demand-weighted fraction of realized demand the
// simulation served (1 when there was no demand).
func (s *Series) ServedFraction() float64 {
	var demand, unserved float64
	for _, h := range s.Hours {
		demand += h.Demand
		unserved += h.Unserved
	}
	if demand <= 0 {
		return 1
	}
	return 1 - unserved/demand
}

// DegradedHours counts hours that ran on a stale decision.
func (s *Series) DegradedHours() int {
	n := 0
	for _, h := range s.Hours {
		if h.Source == SourceStale {
			n++
		}
	}
	return n
}

// LongestOutage is the length of the longest run of consecutive stale
// hours: the worst-case recovery time of the control loop.
func (s *Series) LongestOutage() int {
	longest, run := 0, 0
	for _, h := range s.Hours {
		if h.Source == SourceStale {
			run++
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return longest
}

// HourInput is one hour of workload: the demand the strategy sees and the
// demand that actually arrives, over a shared network.
type HourInput struct {
	Hour     int
	Decision *placement.Spec
	Truth    *placement.Spec
	Dist     [][]float64
}

// Options harden the control loop of Run. The zero value is the strict
// replay: no deadline, no retries, no validation, abort on the first
// decision error.
type Options struct {
	// Retry hardens each hour's decision: per-attempt deadline, bounded
	// retries with backoff, and validation of the plan (see
	// strategy.Retry; a DecideTimeout requires a non-nil Run context).
	// A decision that still fails degrades the hour (Resilient) or aborts
	// the run.
	Retry strategy.Retry
	// Resilient degrades to the last-known-good placement with
	// nearest-replica rerouting when a decision fails (error, timeout,
	// or invalid output), instead of aborting the simulation. Unserved
	// and unreachable demand is then accounted in HourMetrics rather
	// than erroring.
	Resilient bool
	// NoTreeReuse disables the shortest-path-tree engine that carries
	// repaired trees across consecutive hours of the truth evaluation
	// (fault hours reuse the previous hour's trees, incrementally fixed
	// for the links that moved). The engine is bit-for-bit invisible in
	// every metric — disabling it only recomputes each tree cold — so
	// this switch exists for A/B timing and determinism tests, mirroring
	// strategy.Options.NoSolverReuse.
	NoTreeReuse bool
}

// Run walks the hours, deciding each with st under the given hardening
// options. ctx, when non-nil, cancels the whole simulation between hours
// and carries the per-decision deadline of Options.Retry.DecideTimeout.
func Run(ctx context.Context, st strategy.Strategy, hours []HourInput, opts Options) (*Series, error) {
	if opts.Retry.DecideTimeout > 0 && ctx == nil {
		return nil, errors.New("online: Options.Retry.DecideTimeout requires a non-nil context")
	}
	if opts.Retry.MaxRetries < 0 || opts.Retry.DecideTimeout < 0 || opts.Retry.Backoff < 0 {
		return nil, fmt.Errorf("online: negative Options values: %+v", opts)
	}
	out := &Series{Strategy: st.Name()}
	var eng *graph.Engine // nil when NoTreeReuse: every truth tree cold
	if !opts.NoTreeReuse {
		eng = graph.NewEngine()
	}
	var prev *placement.Placement     // previous hour's applied placement, for churn
	var lastGood *placement.Placement // placement of the last fresh decision
	stale := false
	for _, h := range hours {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("online: %s at hour %d: %w", st.Name(), h.Hour, err)
			}
		}
		plan, retries, derr := opts.Retry.Decide(ctx, st, strategy.Instance{Spec: h.Decision, Dist: h.Dist})
		source := SourceFresh
		if derr != nil {
			if !opts.Resilient {
				return nil, fmt.Errorf("online: %s at hour %d: %w", st.Name(), h.Hour, derr)
			}
			plan = fallbackPlan(h, lastGood)
			source = SourceStale
		} else {
			if stale {
				source = SourceRepaired
			}
			lastGood = plan.Placement
		}
		stale = source == SourceStale

		ev, err := evaluateOnTruth(h, plan, opts.Resilient, eng)
		if err != nil {
			return nil, fmt.Errorf("online: %s at hour %d: %w", st.Name(), h.Hour, err)
		}
		unanticipated := ev.unanticipated
		if source == SourceStale {
			// A stale hour serves everything by fallback; the metric
			// tracks prediction misses, not degraded operation.
			unanticipated = 0
		}
		out.Hours = append(out.Hours, HourMetrics{
			Hour:          h.Hour,
			Cost:          ev.cost,
			Congestion:    ev.cong,
			Churn:         churn(prev, plan.Placement),
			Demand:        ev.demand,
			Unserved:      ev.unserved,
			Unanticipated: unanticipated,
			Source:        source,
			Retries:       retries,
		})
		prev = plan.Placement
	}
	return out, nil
}

// fallbackPlan builds the degraded hour's plan: the last-known-good
// placement (or the pinned-only placement if no decision ever succeeded),
// evicted down to the current — possibly degraded — cache capacities. It
// carries no paths, so every request is served by nearest-replica routing
// on the hour's distance matrix, which reflects the failed links.
func fallbackPlan(h HourInput, lastGood *placement.Placement) *strategy.Plan {
	var pl *placement.Placement
	if lastGood != nil {
		pl = lastGood.Clone()
	} else {
		pl = h.Decision.NewPlacement()
	}
	h.Decision.EvictToFit(pl)
	return &strategy.Plan{Placement: pl}
}

// churn counts differing cache entries; the first hour has zero churn.
func churn(prev, cur *placement.Placement) int {
	if prev == nil {
		return 0
	}
	n := 0
	for v := range cur.Stores {
		for i := range cur.Stores[v] {
			if prev.Stores[v][i] != cur.Stores[v][i] {
				n++
			}
		}
	}
	return n
}

// hourEval is the outcome of evaluating one hour's decision on the truth.
type hourEval struct {
	cost, cong                      float64
	demand, unserved, unanticipated float64
}

// evaluateOnTruth rescales the plan's serving paths to the realized
// demand, serving unanticipated requests from their nearest replica. With
// bestEffort, demand with no reachable replica is accounted as unserved
// instead of failing the hour (degraded networks legitimately strand
// requesters); otherwise unreachable demand is an error, the strict
// historical behavior. The engine, when non-nil, serves the nearest-replica
// trees from its cross-hour cache (identical bit for bit to computing them
// cold); the local map still memoizes within the hour either way.
func evaluateOnTruth(h HourInput, dec *strategy.Plan, bestEffort bool, eng *graph.Engine) (hourEval, error) {
	var ev hourEval
	truth := h.Truth
	byReq := map[placement.Request][]placement.ServingPath{}
	decTotal := map[placement.Request]float64{}
	for _, sp := range dec.Paths {
		byReq[sp.Req] = append(byReq[sp.Req], sp)
		decTotal[sp.Req] += sp.Rate
	}
	var paths []placement.ServingPath
	trees := map[graph.NodeID]graph.ShortestTree{}
	for _, rq := range truth.Requests() {
		lam := truth.Rates[rq.Item][rq.Node]
		ev.demand += lam
		if tot := decTotal[rq]; tot > rateEps {
			for _, sp := range byReq[rq] {
				paths = append(paths, placement.ServingPath{Req: rq, Path: sp.Path, Rate: lam * sp.Rate / tot})
			}
			continue
		}
		best, bestD := -1, math.Inf(1)
		for v := range dec.Placement.Stores {
			if dec.Placement.Stores[v][rq.Item] && h.Dist[v][rq.Node] < bestD {
				best, bestD = v, h.Dist[v][rq.Node]
			}
		}
		if best < 0 {
			if bestEffort {
				ev.unserved += lam
				continue
			}
			return hourEval{}, fmt.Errorf("no replica for unanticipated request %+v", rq)
		}
		tree, ok := trees[best]
		if !ok {
			tree = eng.Tree(truth.G, best)
			trees[best] = tree
		}
		p, ok := tree.PathTo(truth.G, rq.Node)
		if !ok {
			if bestEffort {
				ev.unserved += lam
				continue
			}
			return hourEval{}, fmt.Errorf("requester %d unreachable from replica %d", rq.Node, best)
		}
		paths = append(paths, placement.ServingPath{Req: rq, Path: p, Rate: lam})
		if _, declared := dec.Unserved[rq]; !declared {
			// Served through the fallback without the decision having
			// planned for it: a prediction miss, the unanticipated-
			// demand volume of the hour.
			ev.unanticipated += lam
		}
	}
	ev.cost, _, ev.cong = placement.EvaluateServing(truth, paths, dec.Placement)
	return ev, nil
}
