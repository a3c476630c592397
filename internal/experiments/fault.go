package experiments

import (
	"context"
	"fmt"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/online"
	"jcr/internal/strategy"
)

// faultIntensities are the swept per-hour link-failure probabilities: 0 is
// the fault-free control, the rest trade mean time between failures from
// rare (one outage per 20 link-hours) to hostile (one per ~3).
var faultIntensities = []float64{0, 0.05, 0.15, 0.3}

// FigFault is the robustness extension: the online strategies re-optimize
// hourly while a seeded fault injector degrades the network underneath
// them — random link outages of increasing intensity, a mid-window cache
// failure with content loss, a capacity degradation, and an unanticipated
// demand surge. Decisions run under the hardened controller
// (online.Run with Resilient retry and fallback), so a failed or
// infeasible decision degrades to the last-known-good placement instead
// of aborting the run. Figures, per strategy, against failure intensity:
//   - FaultA: mean per-hour routing cost
//   - FaultB: mean per-hour congestion
//   - FaultC: served fraction of realized demand
//   - FaultD: degraded (stale-decision) hours
func FigFault(ctx context.Context, cfg *Config, window int) ([]Figure, error) {
	if window <= 0 {
		window = 8
	}
	sc := NewScenario(cfg, nil)
	startHour := cfg.Hours[0]
	figs := []Figure{
		{ID: "FaultA", Title: "Robustness: mean routing cost under link failures", XLabel: "failure intensity (per link-hour)", YLabel: "mean routing cost"},
		{ID: "FaultB", Title: "Robustness: mean congestion under link failures", XLabel: "failure intensity (per link-hour)", YLabel: "mean max load/capacity"},
		{ID: "FaultC", Title: "Robustness: served fraction of realized demand", XLabel: "failure intensity (per link-hour)", YLabel: "served fraction"},
		{ID: "FaultD", Title: "Robustness: hours on a stale (fallback) decision", XLabel: "failure intensity (per link-hour)", YLabel: "degraded hours"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	cServed := newCollector(&figs[2])
	cStale := newCollector(&figs[3])

	samples := mcSamples(cfg)
	err := runSampleSet(ctx, cfg, samples, func(s *sample) error {
		mc := s.MC
		// One workload per Monte-Carlo run; every intensity and strategy
		// sees the same hours, so curves differ only by the faults.
		base := make([]*Run, window)
		for h := 0; h < window; h++ {
			run, err := sc.MakeRun(RunParams{Mode: GPRPrediction, Hour: startHour + h, MCSeed: int64(mc)})
			if err != nil {
				return fmt.Errorf("fault mc %d hour %d: %w", mc, h, err)
			}
			base[h] = run
		}
		for ii, intensity := range faultIntensities {
			scenario, err := buildFaultScenario(sc, base[0].Decision.G, window, intensity,
				cfg.Seed+90000+int64(mc)*100+int64(ii))
			if err != nil {
				return err
			}
			hours, err := degradeHours(scenario, base, startHour)
			if err != nil {
				return err
			}
			for _, e := range faultRoster() {
				series, err := online.Run(ctx, e.st, hours, online.Options{
					Retry:     strategy.Retry{MaxRetries: 1, Validate: true},
					Resilient: true,
				})
				if err != nil {
					return fmt.Errorf("fault mc %d intensity %g strategy %s: %w", mc, intensity, e.label, err)
				}
				var cost, cong float64
				for _, h := range series.Hours {
					cost += h.Cost
					cong += h.Congestion
				}
				n := float64(len(series.Hours))
				s.add(cCost, e.label, intensity, cost/n)
				s.add(cCong, e.label, intensity, cong/n)
				s.add(cServed, e.label, intensity, series.ServedFraction())
				s.add(cStale, e.label, intensity, float64(series.DegradedHours()))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("%d-hour window from collection hour %d; %d MC runs; scripted cache failure, link degradation and demand surge ride on the random link outages at every intensity > 0",
		window, startHour, cfg.MonteCarloRuns)
	cCost.finish(cfg.MonteCarloRuns, note)
	cCong.finish(cfg.MonteCarloRuns, note)
	cServed.finish(cfg.MonteCarloRuns, note)
	cStale.finish(cfg.MonteCarloRuns, note)
	return figs, nil
}

// faultRoster builds fresh strategy instances (the alternating strategy is
// stateful across hours) for one simulated trace.
func faultRoster() []labeled {
	return []labeled{
		{"alternating (warm start)", strategy.MustNew("alternating", strategy.Options{WarmStart: true, BestEffort: true})},
		{"SP [38]", strategy.MustNew("sp", strategy.Options{})},
		{"3-SP [3]", strategy.MustNew("ksp", strategy.Options{})},
		{"greedy + RNR", strategy.MustNew("rnr", strategy.Options{})},
	}
}

// buildFaultScenario composes the hour's fault script: independently drawn
// per-link outages at the given intensity plus, whenever any faults are on,
// one cache failure with content loss, one long capacity degradation, and
// one catalog-wide demand surge — the deterministic events every intensity
// shares, so curves isolate the link-failure sweep.
func buildFaultScenario(sc *Scenario, g *graph.Graph, window int, intensity float64, seed int64) (*faults.Scenario, error) {
	if intensity <= 0 {
		return nil, nil
	}
	random, err := faults.RandomLinkFaults(g, window, 1/intensity, 2, seed)
	if err != nil {
		return nil, err
	}
	scripted := &faults.Scenario{
		Name: "scripted",
		Events: []faults.Event{
			{Kind: faults.LinkDegrade, Start: 1, Duration: window - 1, Link: 0, Factor: 0.5},
		},
	}
	return faults.Merge(
		fmt.Sprintf("intensity-%g", intensity),
		random,
		faults.CacheFailure(sc.Net.Edges[0], window/2, 2),
		faults.Surge(-1, 1.5, window/2, 1),
		scripted,
	), nil
}

// degradeHours applies the scenario to each base run, producing the hourly
// inputs the online controller sees. Distances are recomputed only for
// hours the injector actually rewrote.
func degradeHours(scenario *faults.Scenario, base []*Run, startHour int) ([]online.HourInput, error) {
	hours := make([]online.HourInput, len(base))
	// One engine across the horizon: consecutive fault hours differ by a
	// few links, so most per-source trees of the hourly all-pairs matrix
	// are repaired, not recomputed.
	eng := graph.NewEngine()
	for h, run := range base {
		dec, truth, _, err := scenario.Apply(h, run.Decision, run.Truth)
		if err != nil {
			return nil, fmt.Errorf("fault hour %d: %w", h, err)
		}
		dist := run.Dist
		if dec != run.Decision {
			dist = eng.AllPairs(dec.G)
		}
		hours[h] = online.HourInput{Hour: startHour + h, Decision: dec, Truth: truth, Dist: dist}
	}
	return hours, nil
}
