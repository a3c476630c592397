package experiments

import (
	"fmt"
	"strings"

	"jcr/internal/msufp"
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
	unlimited, err := scoreRoster(unlimitedRoster(false, cfg.CandidatePaths), unRun)
	if err != nil {
		return "", err
	}
	for _, r := range unlimited {
		fmt.Fprintf(&b, "%-18s %-22s %14.4g %12s\n", "c_uv = inf", r.label, r.cost, "-")
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
	general, err := scoreRoster(generalRoster(cfg), run)
	if err != nil {
		return "", err
	}
	for _, r := range general {
		fmt.Fprintf(&b, "%-18s %-22s %14.4g %12.3g\n", "general", r.label, r.cost, r.congestion)
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
	type row struct {
		scenario, algorithm string
		run                 func() error
	}
	var rows []row
	// The roster rows time each method's Decide, the call the arena's
	// WallMS measures.
	decideRows := func(scenario string, roster []method, run *Run) {
		for _, m := range roster {
			label := m.label
			if label == "Alg.1 (ours)" {
				label = "Alg. 1 (ours)" // Table 3's spelling
			}
			rows = append(rows, row{scenario, label, func() error {
				_, err := m.decide(run)
				return err
			}})
		}
	}
	decideRows("c_uv = inf", unlimitedRoster(fileLevel, cfg.CandidatePaths), unRun)
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
	)
	decideRows("general", generalRoster(cfg), run)
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
