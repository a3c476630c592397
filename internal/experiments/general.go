package experiments

import "fmt"

// generalSweep runs the general-case roster over a sweep of run
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
				results, err := scoreRoster(generalRoster(cfg), run)
				if err != nil {
					return fmt.Errorf("%s x=%v: %w", costFig.ID, x, err)
				}
				for _, r := range results {
					s.add(cCost, r.label+" ("+tag+")", x, r.cost)
					s.add(cCong, r.label+" ("+tag+")", x, r.congestion)
					if cOcc != nil {
						s.add(cOcc, r.label+" ("+tag+")", x, r.occupancy)
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
