package experiments

import (
	"fmt"

	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// truthRule is how a roster method's decision, made on the run's decision
// demand, is scored on the true demand, whose request set may differ.
type truthRule int

const (
	// ruleRNR serves every true request from the decided placement's
	// nearest replica (Alg. 1/greedy, SP + RNR).
	ruleRNR truthRule = iota
	// ruleDecided scales the decided paths to the true rates; requests
	// the decision did not anticipate use RNR (alternating).
	ruleDecided
	// ruleFixed recomputes the method's own candidate paths on the
	// truth: SP's tree path, k-SP's best of its k.
	ruleFixed
)

// method is one entry of the paper's method roster: the label its series
// carry, a strategy built from the registry, and its truth rule.
type method struct {
	label string
	st    strategy.Strategy
	rule  truthRule
}

// outcome is one method's decision scored on the truth.
type outcome struct {
	label      string
	cost       float64
	congestion float64
	occupancy  float64
}

// kspMethod is the k-SP [3] entry with k candidate paths per request.
func kspMethod(label string, k int, rule truthRule) method {
	st := strategy.MustNew("ksp", strategy.Options{}).(*strategy.KSP)
	st.K = k
	return method{label, st, rule}
}

// unlimitedRoster lists the Fig. 5 contenders (unlimited link
// capacities): Alg. 1 at chunk level or the Section 5 greedy at file
// level, the k-SP joint scheme of [3] with k candidate paths, and the SP
// placement of [38]. Labels are in sorted order, the figures' column order.
func unlimitedRoster(fileLevel bool, k int) []method {
	ours := "Alg.1 (ours)"
	if fileLevel {
		ours = "greedy (ours)"
	}
	return []method{
		{ours, strategy.MustNew("alg1", strategy.Options{}), ruleRNR},
		kspMethod("k shortest paths [3]", k, ruleFixed),
		{"shortest path [38]", strategy.MustNew("sp", strategy.Options{}), ruleFixed},
	}
}

// generalRoster lists the general-case contenders of Figs. 7-8, 11-15 and
// the Zipf sweep: our alternating optimizer (IC-IR), the SP placement of
// [38] served on its tree paths, the [3] scheme with the shortest path as
// its only candidate plus capacity-oblivious RNR, and the full [3] over
// Config.CandidatePaths candidates.
func generalRoster(cfg *Config) []method {
	return []method{
		{"alternating (ours)", strategy.MustNew("alternating", strategy.Options{Workers: cfg.Workers, NoSolverReuse: true}), ruleDecided},
		{"SP [38]", strategy.MustNew("sp", strategy.Options{}), ruleFixed},
		kspMethod("SP + RNR [3]", 1, ruleRNR),
		kspMethod("k-SP + RNR [3]", cfg.CandidatePaths, ruleFixed),
	}
}

// decide runs the method on the run's decision demand.
func (m method) decide(run *Run) (*strategy.Plan, error) {
	plan, _, err := m.st.Decide(nil, strategy.Instance{Spec: run.Decision, Dist: run.Dist})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.label, err)
	}
	return plan, nil
}

// score decides on the run's decision demand and measures the plan's cost,
// congestion and cache occupancy on the truth under the method's rule.
func (m method) score(run *Run) (outcome, error) {
	plan, err := m.decide(run)
	if err != nil {
		return outcome{}, err
	}
	pl := plan.Placement
	out := outcome{label: m.label, occupancy: run.Truth.MaxOccupancyRatio(pl)}
	switch m.rule {
	case ruleRNR:
		out.cost, out.congestion, err = EvaluateDecisionOnTruth(run, pl, nil)
	case ruleDecided:
		out.cost, out.congestion, err = EvaluateDecisionOnTruth(run, pl, plan.Paths)
	case ruleFixed:
		var paths []placement.ServingPath
		origin := run.Scenario.Net.Origin
		if ksp, ok := m.st.(*strategy.KSP); ok {
			paths = placement.KSPServingPaths(run.Truth, pl, origin, ksp.K)
		} else {
			paths = placement.ShortestServingPaths(run.Truth, origin)
		}
		if n := len(run.Truth.Requests()) - len(paths); n > 0 {
			err = fmt.Errorf("%d requests unreachable from origin %d", n, origin)
		}
		out.cost, _, out.congestion = placement.EvaluateServing(run.Truth, paths, pl)
	}
	if err != nil {
		return outcome{}, fmt.Errorf("%s on truth: %w", m.label, err)
	}
	return out, nil
}

// EvaluateDecisionOnTruth measures the true cost and congestion of serving
// the TRUE demand with a decision made on the (possibly predicted)
// decision demand: placement.EvaluateOnTruth on the run's truth, with the
// run's tree engine. With no decided paths every request is served from
// its nearest replica: the roster's rnr rule. True demand that no replica
// reaches is an error.
func EvaluateDecisionOnTruth(run *Run, pl *placement.Placement, decided []placement.ServingPath) (cost, maxUtil float64, err error) {
	cost, maxUtil, _, unserved := placement.EvaluateOnTruth(run.Truth, pl, decided, nil, run.Dist, run.engine())
	if unserved > 0 {
		return 0, 0, fmt.Errorf("experiments: %.6g of the true demand has no reachable replica", unserved)
	}
	return cost, maxUtil, nil
}

// scoreRoster scores every method of the roster on one run, in roster
// order.
func scoreRoster(roster []method, run *Run) ([]outcome, error) {
	out := make([]outcome, len(roster))
	for i, m := range roster {
		var err error
		if out[i], err = m.score(run); err != nil {
			return nil, err
		}
	}
	return out, nil
}
