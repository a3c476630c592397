package experiments

import (
	"fmt"
	"sort"
	"strings"

	"jcr/internal/msufp"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// Table2 reproduces the qualitative summary of the chunk-level IC-IR
// results at the default setting: for each of the three scenarios it
// reports the measured cost (and congestion where defined) of our solution
// and the benchmarks, plus the IC-FR reference for the general case.
func Table2(cfg *Config) (string, error) {
	sc := NewScenario(cfg, nil)
	run, err := sc.MakeRun(RunParams{Mode: TrueDemand, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("== Table 2: Summary of Performance Evaluation Results (chunk level, IC-IR, default setting) ==\n")
	fmt.Fprintf(&b, "%-18s %-22s %14s %12s\n", "scenario", "algorithm", "routing cost", "congestion")

	// Scenario 1: unlimited link capacities.
	unRun, err := sc.MakeRun(RunParams{CapacityFrac: -1, Mode: TrueDemand, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	costs, err := fig5ChunkMethods(cfg, unRun)
	if err != nil {
		return "", err
	}
	for _, name := range []string{"Alg.1 (ours)", "k shortest paths [3]", "shortest path [38]"} {
		fmt.Fprintf(&b, "%-18s %-22s %14.4g %12s\n", "c_uv = inf", name, costs[name], "-")
	}

	// Scenario 2: binary cache capacities.
	fi := newFig6Instance(run, run.Decision)
	split, err := fi.inst.SplittableOptimum(nil)
	if err != nil {
		return "", err
	}
	for _, entry := range []struct {
		name string
		k    int
	}{{"Alg.2 (K=1000)", 1000}, {"[33] (K=2)", 2}, {"RNR [3]", 0}} {
		var asgn *msufp.Assignment
		if entry.k > 0 {
			asgn, err = msufp.SolveAlg2(nil, fi.inst, entry.k)
		} else {
			asgn, err = msufp.SolveRNR(fi.inst)
		}
		if err != nil {
			return "", err
		}
		cost, cong, err := fi.evaluateOnTruth(run, asgn)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-18s %-22s %14.4g %12.3g\n", "c_v = 0/|C|", entry.name, cost, cong)
	}
	fmt.Fprintf(&b, "%-18s %-22s %14.4g %12s\n", "c_v = 0/|C|", "splittable flow (LB)", split.Cost, "-")

	// Scenario 3: general case, with the IC-FR reference.
	icfr, _, err := strategy.MustNew("alternating", strategy.Options{Fractional: true, NoSolverReuse: true}).
		Decide(nil, strategy.Instance{Spec: run.Decision, Dist: run.Dist})
	if err != nil {
		return "", err
	}
	results, err := runGeneralMethods(cfg, run)
	if err != nil {
		return "", err
	}
	for _, r := range results {
		fmt.Fprintf(&b, "%-18s %-22s %14.4g %12.3g\n", "general", r.Name, r.Cost, r.Congestion)
	}
	fmt.Fprintf(&b, "%-18s %-22s %14.4g %12.3g\n", "general", "IC-FR (alternating)", icfr.Cost, icfr.MaxUtilization)
	return b.String(), nil
}

// ExecTimes reproduces Appendix C's Tables 3 (chunk level) and 4 (file
// level): average wall-clock execution times of every algorithm at the
// default setting under IC-IR.
func ExecTimes(cfg *Config, fileLevel bool) (string, error) {
	sc := NewScenario(cfg, nil)
	run, err := sc.MakeRun(RunParams{FileLevel: fileLevel, Mode: TrueDemand, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	unRun, err := sc.MakeRun(RunParams{FileLevel: fileLevel, CapacityFrac: -1, Mode: TrueDemand, Hour: cfg.Hours[0]})
	if err != nil {
		return "", err
	}
	origin := sc.Net.Origin
	slotCap := []float64(nil)
	if fileLevel {
		slotCap = run.SlotCap
	}
	type row struct {
		scenario, algorithm string
		run                 func() error
	}
	rows := []row{}
	if fileLevel {
		rows = append(rows, row{"c_uv = inf", "greedy (ours)", func() error {
			_, err := placement.Greedy(unRun.Decision, unRun.Dist)
			return err
		}})
	} else {
		rows = append(rows, row{"c_uv = inf", "Alg. 1 (ours)", func() error {
			_, err := placement.Alg1(nil, unRun.Decision, unRun.Dist, placement.Alg1Options{})
			return err
		}})
	}
	rows = append(rows,
		row{"c_uv = inf", "k shortest paths [3]", func() error {
			_, err := placement.KSP3(unRun.Decision, origin, cfg.CandidatePaths, slotCap)
			return err
		}},
		row{"c_uv = inf", "shortest path [38]", func() error {
			_, _, err := placement.SP38(nil, unRun.Decision, origin, slotCap)
			return err
		}},
	)
	fi := newFig6Instance(run, run.Decision)
	rows = append(rows,
		row{"c_v = 0/|C|", "Alg. 2 (K=1000)", func() error {
			_, err := msufp.SolveAlg2(nil, fi.inst, 1000)
			return err
		}},
		row{"c_v = 0/|C|", "[33] (K=2)", func() error {
			_, err := msufp.SolveAlg2(nil, fi.inst, 2)
			return err
		}},
		row{"c_v = 0/|C|", "RNR [3]", func() error {
			_, err := msufp.SolveRNR(fi.inst)
			return err
		}},
		row{"general", "alternating (ours)", func() error {
			_, _, err := strategy.MustNew("alternating", strategy.Options{NoSolverReuse: true}).
				Decide(nil, strategy.Instance{Spec: run.Decision, Dist: run.Dist})
			return err
		}},
		row{"general", "SP [38]", func() error {
			_, _, err := placement.SP38(nil, run.Decision, origin, slotCap)
			return err
		}},
		row{"general", "SP + RNR [3]", func() error {
			pl, err := placement.KSP3(run.Decision, origin, 1, slotCap)
			if err != nil {
				return err
			}
			_, err = placement.GlobalRNRServing(run.Decision, pl.Placement, run.Dist)
			return err
		}},
		row{"general", "k-SP + RNR [3]", func() error {
			_, err := placement.KSP3(run.Decision, origin, cfg.CandidatePaths, slotCap)
			return err
		}},
	)
	var b strings.Builder
	id, level := "Table 3", "chunk"
	if fileLevel {
		id, level = "Table 4", "file"
	}
	fmt.Fprintf(&b, "== %s: Execution Time under %s-level Simulation ==\n", id, level)
	fmt.Fprintf(&b, "%-14s %-22s %20s\n", "scenario", "algorithm", "avg execution time (s)")
	for _, r := range rows {
		const reps = 3
		lap := cfg.stopwatch()
		for rep := 0; rep < reps; rep++ {
			if err := r.run(); err != nil {
				return "", fmt.Errorf("%s / %s: %w", r.scenario, r.algorithm, err)
			}
		}
		avg := lap().Seconds() / reps
		fmt.Fprintf(&b, "%-14s %-22s %20.4f\n", r.scenario, r.algorithm, avg)
	}
	return b.String(), nil
}

// sortedNames returns map keys in sorted order (deterministic rendering).
func sortedNames[M ~map[string]V, V any](m M) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
