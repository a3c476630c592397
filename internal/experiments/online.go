package experiments

import (
	"fmt"

	"jcr/internal/online"
	"jcr/internal/strategy"
)

// Online simulates the paper's operational setting over a window of
// consecutive trace hours: each hour every strategy re-optimizes on the GPR
// prediction and serves the realized demand. Beyond the paper's one-shot
// figures it also reports placement churn, the operational cost of hourly
// re-optimization. Figures:
//   - OnlineA: per-hour routing cost per strategy
//   - OnlineB: per-hour congestion per strategy
//   - OnlineC: cumulative placement churn per strategy
func Online(cfg *Config, window int) ([]Figure, error) {
	if window <= 0 {
		window = 12
	}
	sc := NewScenario(cfg, nil)
	// Build the hourly inputs once; all strategies see the same workload.
	var hours []online.HourInput
	startHour := cfg.Hours[0]
	for h := 0; h < window; h++ {
		run, err := sc.MakeRun(RunParams{
			Mode: GPRPrediction, Hour: startHour + h, MCSeed: 0,
		})
		if err != nil {
			return nil, fmt.Errorf("online hour %d: %w", h, err)
		}
		hours = append(hours, online.HourInput{
			Hour:     startHour + h,
			Decision: run.Decision,
			Truth:    run.Truth,
			Dist:     run.Dist,
		})
	}
	roster := []labeled{
		{"alternating", strategy.MustNew("alternating", strategy.Options{})},
		{"alternating (warm start)", strategy.MustNew("alternating", strategy.Options{WarmStart: true})},
		{"SP [38]", strategy.MustNew("sp", strategy.Options{})},
		{"greedy + RNR", strategy.MustNew("rnr", strategy.Options{})},
		{"static alternating", &strategy.Static{Inner: strategy.MustNew("alternating", strategy.Options{})}},
	}
	figs := []Figure{
		{ID: "OnlineA", Title: "Online operation: per-hour routing cost (GPR-predicted demand)", XLabel: "hour", YLabel: "routing cost"},
		{ID: "OnlineB", Title: "Online operation: per-hour congestion", XLabel: "hour", YLabel: "max load/capacity"},
		{ID: "OnlineC", Title: "Online operation: cumulative placement churn", XLabel: "hour", YLabel: "items moved (cumulative)"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	cChurn := newCollector(&figs[2])
	for _, e := range roster {
		series, err := online.Run(nil, e.st, hours, online.Options{})
		if err != nil {
			return nil, err
		}
		cum := 0
		for _, h := range series.Hours {
			cCost.series(e.label).addPoint(float64(h.Hour), h.Cost)
			cCong.series(e.label).addPoint(float64(h.Hour), h.Congestion)
			cum += h.Churn
			cChurn.series(e.label).addPoint(float64(h.Hour), float64(cum))
		}
	}
	note := fmt.Sprintf("%d-hour window starting at collection hour %d; decisions on GPR forecasts", window, startHour)
	cCost.finish(1, note)
	cCong.finish(1, note)
	cChurn.finish(1, note)
	return figs, nil
}

// labeled pairs a strategy with the display label its series carries in
// the online figures.
type labeled struct {
	label string
	st    strategy.Strategy
}
