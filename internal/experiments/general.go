package experiments

import "fmt"

// sweep is one parameter sweep of the general-case roster: every method
// scored at every (sample, prediction mode, x) point. The zero values of
// samples, modes and note select the paper figures' defaults.
type sweep struct {
	// samples is the Monte-Carlo grid; nil means hourSamples.
	samples []*sample
	// modes are the decision demands; nil means fig5Modes. With more than
	// one mode the series carry the mode's tag.
	modes []PredictionMode
	// xs is the swept axis.
	xs []float64
	// run builds the run at xs[i]; p arrives with the sample's Hour and
	// MCSeed and the mode already set.
	run func(p RunParams, i int) (*Run, error)
	// cost, when non-nil, maps a method's cost at x to the plotted value.
	cost func(cost, x float64) float64
	// note is the figures' provenance note, a format taking the sample
	// count; empty means "averaged over %d samples".
	note string
}

// generalSweep runs the general-case roster over a sweep, producing cost
// and congestion figures (plus occupancy for file-level sweeps). Points
// are recorded samples outer, then modes, then x values; per (series, x)
// the Monte-Carlo sum is in sample order.
func generalSweep(cfg *Config, sw sweep, costFig, congFig, occFig *Figure) error {
	if sw.samples == nil {
		sw.samples = hourSamples(cfg)
	}
	if sw.modes == nil {
		sw.modes = fig5Modes
	}
	if sw.note == "" {
		sw.note = "averaged over %d samples"
	}
	cCost := newCollector(costFig)
	cCong := newCollector(congFig)
	var cOcc *collector
	if occFig != nil {
		cOcc = newCollector(occFig)
	}
	err := runSampleSet(nil, cfg, sw.samples, func(s *sample) error {
		for _, mode := range sw.modes {
			for i, x := range sw.xs {
				run, err := sw.run(RunParams{Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC)}, i)
				if err != nil {
					return err
				}
				results, err := scoreRoster(generalRoster(cfg), run)
				if err != nil {
					return fmt.Errorf("%s x=%v: %w", costFig.ID, x, err)
				}
				for _, r := range results {
					name := r.label
					if len(sw.modes) > 1 {
						name += " (" + modeTag(mode) + ")"
					}
					cost := r.cost
					if sw.cost != nil {
						cost = sw.cost(cost, x)
					}
					s.add(cCost, name, x, cost)
					s.add(cCong, name, x, r.congestion)
					if cOcc != nil {
						s.add(cOcc, name, x, r.occupancy)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	note := fmt.Sprintf(sw.note, len(sw.samples))
	cCost.finish(len(sw.samples), note)
	cCong.finish(len(sw.samples), note)
	if cOcc != nil {
		cOcc.finish(len(sw.samples), note)
	}
	return nil
}

// paramSweep sweeps run parameters on one scenario: set applies x to the
// run's parameters.
func paramSweep(sc *Scenario, xs []float64, set func(*RunParams, float64)) sweep {
	return sweep{xs: xs, run: func(p RunParams, i int) (*Run, error) {
		set(&p, xs[i])
		return sc.MakeRun(p)
	}}
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
	chunk := paramSweep(sc, []float64{4, 8, 12, 16, 20}, func(p *RunParams, x float64) { p.CacheSlots = x })
	if err := generalSweep(cfg, chunk, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
	file := paramSweep(sc, []float64{1, 2, 3}, func(p *RunParams, x float64) { p.FileLevel, p.CacheSlots = true, x })
	if err := generalSweep(cfg, file, &figs[2], &figs[3], &figs[4]); err != nil {
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
	chunk := paramSweep(sc, capFracs, func(p *RunParams, x float64) { p.CapacityFrac = x })
	if err := generalSweep(cfg, chunk, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
	file := paramSweep(sc, capFracs, func(p *RunParams, x float64) { p.FileLevel, p.CapacityFrac = true, x })
	if err := generalSweep(cfg, file, &figs[2], &figs[3], &figs[4]); err != nil {
		return nil, err
	}
	return figs, nil
}
