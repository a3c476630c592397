package experiments

import (
	"fmt"

	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// generalResult is one method's outcome on a general-case run.
type generalResult struct {
	Name       string
	Cost       float64
	Congestion float64
	Occupancy  float64
}

// generalMethodNames fixes the presentation order of the Figs. 7-8
// contenders.
var generalMethodNames = []string{
	"alternating (ours)",
	"SP [38]",
	"SP + RNR [3]",
	"k-SP + RNR [3]",
}

// runGeneralMethods executes the general-case contenders of Figs. 7-8 on
// one run: our alternating optimizer (IC-IR), the shortest-path placement
// of [38] with on-path serving, the [3] variant with the shortest path as
// the only candidate plus capacity-oblivious RNR routing, and the full [3]
// with k candidate paths. All decisions use the run's decision demand and
// are evaluated on the truth.
func runGeneralMethods(cfg *Config, run *Run) ([]generalResult, error) {
	origin := run.Scenario.Net.Origin
	out := make([]generalResult, 0, 4)

	alt := strategy.MustNew("alternating", strategy.Options{Workers: cfg.Workers, NoSolverReuse: true})
	plan, _, err := alt.Decide(nil, strategy.Instance{Spec: run.Decision, Dist: run.Dist})
	if err != nil {
		return nil, fmt.Errorf("alternating: %w", err)
	}
	cost, cong, err := EvaluateDecisionOnTruth(run, plan.Placement, plan.Paths)
	if err != nil {
		return nil, err
	}
	out = append(out, generalResult{
		Name: generalMethodNames[0], Cost: cost, Congestion: cong,
		Occupancy: run.Truth.MaxOccupancyRatio(plan.Placement),
	})

	// SP [38]: per-path placement on the origin's shortest paths, served
	// along those paths.
	slotCap := []float64(nil)
	if run.Truth.ItemSize != nil {
		slotCap = run.SlotCap
	}
	spPl, _, err := placement.SP38(nil, run.Decision, origin, slotCap)
	if err != nil {
		return nil, fmt.Errorf("SP38: %w", err)
	}
	spPaths, err := placement.ShortestServingPaths(run.Truth, origin)
	if err != nil {
		return nil, err
	}
	cost, _, cong = placement.EvaluateServing(run.Truth, spPaths, spPl)
	out = append(out, generalResult{
		Name: generalMethodNames[1], Cost: cost, Congestion: cong,
		Occupancy: run.Truth.MaxOccupancyRatio(spPl),
	})

	// SP + RNR [3]: placement from the k=1 joint scheme, then
	// capacity-oblivious route-to-nearest-replica.
	sp1, err := placement.KSP3(run.Decision, origin, 1, slotCap)
	if err != nil {
		return nil, fmt.Errorf("KSP3 k=1: %w", err)
	}
	rnrPaths, err := placement.GlobalRNRServing(run.Truth, sp1.Placement, run.Dist)
	if err != nil {
		return nil, err
	}
	cost, _, cong = placement.EvaluateServing(run.Truth, rnrPaths, sp1.Placement)
	out = append(out, generalResult{
		Name: generalMethodNames[2], Cost: cost, Congestion: cong,
		Occupancy: run.Truth.MaxOccupancyRatio(sp1.Placement),
	})

	// k-SP + RNR [3]: the full joint scheme over k candidate paths.
	spk, err := placement.KSP3(run.Decision, origin, cfg.CandidatePaths, slotCap)
	if err != nil {
		return nil, fmt.Errorf("KSP3 k=%d: %w", cfg.CandidatePaths, err)
	}
	kspPaths, err := placement.KSPServingPaths(run.Truth, spk.Placement, origin, cfg.CandidatePaths)
	if err != nil {
		return nil, err
	}
	cost, _, cong = placement.EvaluateServing(run.Truth, kspPaths, spk.Placement)
	out = append(out, generalResult{
		Name: generalMethodNames[3], Cost: cost, Congestion: cong,
		Occupancy: run.Truth.MaxOccupancyRatio(spk.Placement),
	})
	return out, nil
}

// generalSweep runs the general-case contenders over a sweep of run
// parameters, producing cost and congestion figures (plus occupancy for
// file-level sweeps).
func generalSweep(cfg *Config, sc *Scenario, base RunParams, xs []float64, apply func(*RunParams, float64),
	costFig, congFig, occFig *Figure) error {
	cCost := newCollector(costFig)
	cCong := newCollector(congFig)
	var cOcc *collector
	if occFig != nil {
		cOcc = newCollector(occFig)
	}
	samples := hourSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, mode := range fig5Modes {
			tag := modeTag(mode)
			for _, x := range xs {
				p := base
				p.Hour = s.Hour
				p.MCSeed = int64(s.MC)
				p.Mode = mode
				apply(&p, x)
				run, err := sc.MakeRun(p)
				if err != nil {
					return err
				}
				results, err := runGeneralMethods(cfg, run)
				if err != nil {
					return fmt.Errorf("%s x=%v: %w", costFig.ID, x, err)
				}
				for _, r := range results {
					s.add(cCost, r.Name+" ("+tag+")", x, r.Cost)
					s.add(cCong, r.Name+" ("+tag+")", x, r.Congestion)
					if cOcc != nil {
						s.add(cOcc, r.Name+" ("+tag+")", x, r.Occupancy)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	note := fmt.Sprintf("averaged over %d samples", len(samples))
	cCost.finish(len(samples), note)
	cCong.finish(len(samples), note)
	if cOcc != nil {
		cOcc.finish(len(samples), note)
	}
	return nil
}

// Fig7 reproduces the general case under varying cache capacity: chunk
// level (cost, congestion) and file level (cost, congestion, occupancy).
func Fig7(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	figs := []Figure{
		{ID: "Fig7a", Title: "General case, chunk level: cost vs cache capacity", XLabel: "cache capacity (chunks)", YLabel: "routing cost"},
		{ID: "Fig7b", Title: "General case, chunk level: congestion vs cache capacity", XLabel: "cache capacity (chunks)", YLabel: "max load/capacity"},
		{ID: "Fig7c", Title: "General case, file level: cost vs cache capacity", XLabel: "cache capacity (avg files)", YLabel: "routing cost"},
		{ID: "Fig7d", Title: "General case, file level: congestion vs cache capacity", XLabel: "cache capacity (avg files)", YLabel: "max load/capacity"},
		{ID: "Fig7e", Title: "General case, file level: max cache occupancy", XLabel: "cache capacity (avg files)", YLabel: "max occupancy ratio"},
	}
	err := generalSweep(cfg, sc, RunParams{}, []float64{4, 8, 12, 16, 20},
		func(p *RunParams, x float64) { p.CacheSlots = x }, &figs[0], &figs[1], nil)
	if err != nil {
		return nil, err
	}
	err = generalSweep(cfg, sc, RunParams{FileLevel: true}, []float64{1, 2, 3},
		func(p *RunParams, x float64) { p.CacheSlots = x }, &figs[2], &figs[3], &figs[4])
	if err != nil {
		return nil, err
	}
	return figs, nil
}

// Fig8 reproduces the general case under varying link capacity.
func Fig8(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	figs := []Figure{
		{ID: "Fig8a", Title: "General case, chunk level: cost vs link capacity", XLabel: "link capacity (fraction of total rate)", YLabel: "routing cost"},
		{ID: "Fig8b", Title: "General case, chunk level: congestion vs link capacity", XLabel: "link capacity (fraction of total rate)", YLabel: "max load/capacity"},
		{ID: "Fig8c", Title: "General case, file level: cost vs link capacity", XLabel: "link capacity (fraction of total rate)", YLabel: "routing cost"},
		{ID: "Fig8d", Title: "General case, file level: congestion vs link capacity", XLabel: "link capacity (fraction of total rate)", YLabel: "max load/capacity"},
		{ID: "Fig8e", Title: "General case, file level: max cache occupancy", XLabel: "link capacity (fraction of total rate)", YLabel: "max occupancy ratio"},
	}
	capFracs := []float64{0.004, 0.007, 0.012, 0.02}
	err := generalSweep(cfg, sc, RunParams{}, capFracs,
		func(p *RunParams, x float64) { p.CapacityFrac = x }, &figs[0], &figs[1], nil)
	if err != nil {
		return nil, err
	}
	err = generalSweep(cfg, sc, RunParams{FileLevel: true}, capFracs,
		func(p *RunParams, x float64) { p.CapacityFrac = x }, &figs[2], &figs[3], &figs[4])
	if err != nil {
		return nil, err
	}
	return figs, nil
}
