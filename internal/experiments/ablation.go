package experiments

import (
	"fmt"
	"strings"

	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/routing"
	"jcr/internal/strategy"
)

// Ablation quantifies the design choices DESIGN.md calls out:
//
//  1. Algorithm 1's monotone local-search polish after pipage rounding
//     (guarantee-preserving; how much does it buy in practice?).
//  2. LP+pipage vs greedy for the Section 4.3.1 per-path placement (the
//     paper uses the former at chunk level, the latter at file level; we
//     default to greedy at evaluation scale - what does that cost?).
//  3. Randomized-rounding trials in MMUFP (1 draw vs the default 5).
//  4. The exact multicommodity LP vs the sequential heuristic for MMSFP
//     under link contention.
func Ablation(cfg *Config) (string, error) {
	var b strings.Builder
	b.WriteString("== Ablations of implementation choices (see DESIGN.md) ==\n\n")
	sc := NewScenario(cfg, nil)

	// ---- 1. Alg1 polish ----
	unRun, err := sc.MakeRun(RunParams{CapacityFrac: -1, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	wmax := graph.MaxFinite(unRun.Dist)
	b.WriteString("1) Algorithm 1: pipage rounding with vs without the local-search polish\n")
	fmt.Fprintf(&b, "   %-14s %14s %14s %12s\n", "variant", "cost", "saving", "time (ms)")
	for _, variant := range []struct {
		name string
		opts placement.Alg1Options
	}{
		{"plain pipage", placement.Alg1Options{DisablePolish: true}},
		{"with polish", placement.Alg1Options{}},
	} {
		lap := cfg.stopwatch()
		res, err := placement.Alg1(nil, unRun.Decision, unRun.Dist, variant.opts)
		if err != nil {
			return "", err
		}
		elapsed := lap()
		saving := unRun.Decision.SavingRNR(res.Placement, unRun.Dist, wmax)
		fmt.Fprintf(&b, "   %-14s %14.6g %14.6g %12.1f\n", variant.name, res.Cost, saving, float64(elapsed.Microseconds())/1000)
	}

	// ---- 2. Per-path placement: LP+pipage vs greedy ----
	smallCfg := *cfg
	smallCfg.NumVideos = 3
	smallSc := NewScenario(&smallCfg, nil)
	run, err := smallSc.MakeRun(RunParams{Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	paths, err := placement.ShortestServingPaths(run.Decision, smallSc.Net.Origin)
	if err != nil {
		return "", err
	}
	b.WriteString("\n2) Section 4.3.1 placement subroutine: LP+pipage vs greedy (downsized instance)\n")
	fmt.Fprintf(&b, "   %-14s %14s %12s\n", "method", "saving F_{r,f}", "time (ms)")
	for _, variant := range []struct {
		name   string
		method placement.PerPathMethod
	}{
		{"LP + pipage", placement.PerPathLP},
		{"greedy", placement.PerPathGreedy},
	} {
		lap := cfg.stopwatch()
		pl, err := placement.PlacePerPath(nil, run.Decision, paths, placement.PerPathOptions{Method: variant.method})
		if err != nil {
			return "", err
		}
		elapsed := lap()
		fmt.Fprintf(&b, "   %-14s %14.6g %12.1f\n", variant.name,
			placement.PerPathSaving(run.Decision, paths, pl), float64(elapsed.Microseconds())/1000)
	}

	// ---- 3. Randomized-rounding trials ----
	genRun, err := sc.MakeRun(RunParams{Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	b.WriteString("\n3) MMUFP randomized rounding: best of N independent draws\n")
	fmt.Fprintf(&b, "   %-14s %14s %14s\n", "draws", "cost", "congestion")
	for _, trials := range []int{1, 5, 20} {
		sol, _, err := strategy.MustNew("alternating", strategy.Options{
			RoundingTrials: trials,
			Rng:            rng.New(9),
			NoSolverReuse:  true,
		}).Decide(nil, strategy.Instance{Spec: genRun.Decision, Dist: genRun.Dist})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "   %-14d %14.6g %14.4g\n", trials, sol.Cost, sol.MaxUtilization)
	}

	// ---- 4. MMSFP: exact LP vs sequential heuristic under contention ----
	tightRun, err := sc.MakeRun(RunParams{CapacityFrac: 0.004, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	b.WriteString("\n4) MMSFP under contention: coupled LP vs sequential residual routing\n")
	fmt.Fprintf(&b, "   %-14s %14s %14s %10s\n", "solver", "cost", "congestion", "method")
	pl := tightRun.Decision.NewPlacement()
	for _, variant := range []struct {
		name    string
		maxVars int
	}{
		{"LP allowed", 2_000_000},
		{"sequential", 1},
	} {
		res, err := routing.Route(nil, tightRun.Decision, pl, routing.Options{
			Fractional: true,
			LPMaxVars:  variant.maxVars,
		})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "   %-14s %14.6g %14.4g %10s\n", variant.name, res.Cost, res.MaxUtilization, res.Method)
	}
	return b.String(), nil
}
