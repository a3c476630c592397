package experiments

import (
	"fmt"

	"jcr/internal/demand"
	"jcr/internal/topo"
)

// Fig11 (Appendix D.1) varies the catalog size by the number of videos,
// chunk level, general case.
func Fig11(cfg *Config) ([]Figure, error) {
	figs := []Figure{
		{ID: "Fig11a", Title: "Varying #videos: routing cost", XLabel: "#videos", YLabel: "routing cost"},
		{ID: "Fig11b", Title: "Varying #videos: congestion", XLabel: "#videos", YLabel: "max load/capacity"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	samples := 0
	for _, nv := range []int{6, 8, 10, 12} {
		sub := *cfg
		sub.NumVideos = nv
		sc := NewScenario(&sub, nil)
		ss := hourSamples(cfg)
		err := runSampleSet(nil, cfg, ss, func(s *sample) error {
			for _, mode := range fig5Modes {
				tag := modeTag(mode)
				run, err := sc.MakeRun(RunParams{Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC)})
				if err != nil {
					return err
				}
				results, err := scoreRoster(generalRoster(cfg), run)
				if err != nil {
					return fmt.Errorf("Fig11 #videos=%d: %w", nv, err)
				}
				for _, r := range results {
					s.add(cCost, r.label+" ("+tag+")", float64(nv), r.cost)
					s.add(cCong, r.label+" ("+tag+")", float64(nv), r.congestion)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		samples = len(ss)
	}
	note := fmt.Sprintf("averaged over %d samples per point", samples)
	cCost.finish(samples, note)
	cCong.finish(samples, note)
	return figs, nil
}

// Fig12 (Appendix D.2) varies the chunk size with the same set of videos:
// 25 MB (|C|=199), 50 MB (|C|=103), 100 MB (|C|=54). Cache capacity scales
// to hold the same bytes, and rates stay in chunks/hour of the respective
// size.
func Fig12(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	figs := []Figure{
		{ID: "Fig12a", Title: "Varying chunk size: routing cost (MB-normalized)", XLabel: "chunk size (MB)", YLabel: "routing cost x chunkMB/100"},
		{ID: "Fig12b", Title: "Varying chunk size: congestion", XLabel: "chunk size (MB)", YLabel: "max load/capacity"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	samples := hourSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, mode := range fig5Modes {
			tag := modeTag(mode)
			for _, chunkMB := range []float64{25, 50, 100} {
				run, err := sc.MakeRun(RunParams{
					ChunkMB: chunkMB,
					// Same cache bytes: 12 x 100 MB.
					CacheSlots: cfg.ChunkSlots * demand.DefaultChunkMB / chunkMB,
					Mode:       mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				results, err := scoreRoster(generalRoster(cfg), run)
				if err != nil {
					return fmt.Errorf("Fig12 chunkMB=%v: %w", chunkMB, err)
				}
				for _, r := range results {
					// Normalize cost to MB so chunk sizes compare.
					s.add(cCost, r.label+" ("+tag+")", chunkMB, r.cost*chunkMB/demand.DefaultChunkMB)
					s.add(cCong, r.label+" ("+tag+")", chunkMB, r.congestion)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("averaged over %d samples", len(samples))
	cCost.finish(len(samples), note)
	cCong.finish(len(samples), note)
	return figs, nil
}

// Fig13 (Appendix D.3) varies the synthetic prediction error sigma
// (sigma = 0 is the true demand).
func Fig13(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	figs := []Figure{
		{ID: "Fig13a", Title: "Varying prediction error: routing cost", XLabel: "sigma (fraction of mean demand)", YLabel: "routing cost"},
		{ID: "Fig13b", Title: "Varying prediction error: congestion", XLabel: "sigma (fraction of mean demand)", YLabel: "max load/capacity"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	samples := hourSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, sigma := range []float64{0, 0.2, 0.5, 1.0} {
			run, err := sc.MakeRun(RunParams{
				Mode: SyntheticError, SigmaFrac: sigma,
				Hour: s.Hour, MCSeed: int64(s.MC),
			})
			if err != nil {
				return err
			}
			results, err := scoreRoster(generalRoster(cfg), run)
			if err != nil {
				return fmt.Errorf("Fig13 sigma=%v: %w", sigma, err)
			}
			for _, r := range results {
				s.add(cCost, r.label, sigma, r.cost)
				s.add(cCong, r.label, sigma, r.congestion)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("averaged over %d samples", len(samples))
	cCost.finish(len(samples), note)
	cCong.finish(len(samples), note)
	return figs, nil
}

// Fig15 (Appendix D.4) varies the network topology per Table 5, with
// 1-Gbps-equivalent link capacities (4500 chunks/hour at 100 MB/chunk),
// chunk level.
func Fig15(cfg *Config) ([]Figure, error) {
	figs := []Figure{
		{ID: "Fig15a", Title: "Varying topology: routing cost", XLabel: "topology (0=Abvt, 1=Tinet, 2=Deltacom)", YLabel: "routing cost"},
		{ID: "Fig15b", Title: "Varying topology: congestion", XLabel: "topology (0=Abvt, 1=Tinet, 2=Deltacom)", YLabel: "max load/capacity"},
	}
	cCost := newCollector(&figs[0])
	cCong := newCollector(&figs[1])
	nets := []struct {
		name string
		mk   func(int64) *topo.Network
	}{
		{"Abvt", topo.Abvt},
		{"Tinet", topo.Tinet},
		{"Deltacom", topo.Deltacom},
	}
	// 1 Gbps in chunks/hour: 1e9 b/s * 3600 s / (100 MB * 8e6 b/MB).
	const gbpsChunksPerHour = 1e9 * 3600 / (demand.DefaultChunkMB * 8e6)
	samples := 0
	for ni, nt := range nets {
		sc := NewScenario(cfg, nt.mk(cfg.Seed))
		ss := hourSamples(cfg)
		err := runSampleSet(nil, cfg, ss, func(s *sample) error {
			for _, mode := range fig5Modes {
				tag := modeTag(mode)
				run, err := sc.MakeRun(RunParams{
					CapacityFrac: absoluteCapacity(sc, gbpsChunksPerHour, s.Hour),
					Mode:         mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				results, err := scoreRoster(generalRoster(cfg), run)
				if err != nil {
					return fmt.Errorf("Fig15 %s: %w", nt.name, err)
				}
				for _, r := range results {
					s.add(cCost, r.label+" ("+tag+")", float64(ni), r.cost)
					s.add(cCong, r.label+" ("+tag+")", float64(ni), r.congestion)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		samples = len(ss)
	}
	note := fmt.Sprintf("averaged over %d samples per topology", samples)
	cCost.finish(samples, note)
	cCong.finish(samples, note)
	return figs, nil
}

// absoluteCapacity converts an absolute per-link capacity into the
// fraction-of-total-rate form RunParams expects.
func absoluteCapacity(sc *Scenario, capacity float64, hour int) float64 {
	abs := sc.absoluteHour(hour)
	items := demand.ChunkCatalog(sc.Videos, sc.Cfg.ChunkMB)
	rates := demand.ItemRates(items, sc.Trace.Views[abs], false)
	var total float64
	for _, r := range rates {
		total += r
	}
	if total <= 0 {
		return -1
	}
	return capacity / total
}
