package experiments

import (
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
	xs := []float64{6, 8, 10, 12}
	scs := make([]*Scenario, len(xs))
	for i, nv := range xs {
		sub := *cfg
		sub.NumVideos = int(nv)
		scs[i] = NewScenario(&sub, nil)
	}
	sw := sweep{
		xs:   xs,
		run:  func(p RunParams, i int) (*Run, error) { return scs[i].MakeRun(p) },
		note: "averaged over %d samples per point",
	}
	if err := generalSweep(cfg, sw, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
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
	sw := paramSweep(sc, []float64{25, 50, 100}, func(p *RunParams, chunkMB float64) {
		p.ChunkMB = chunkMB
		// Same cache bytes: 12 x 100 MB.
		p.CacheSlots = cfg.ChunkSlots * demand.DefaultChunkMB / chunkMB
	})
	// Normalize cost to MB so chunk sizes compare.
	sw.cost = func(cost, chunkMB float64) float64 { return cost * chunkMB / demand.DefaultChunkMB }
	if err := generalSweep(cfg, sw, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
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
	sw := paramSweep(sc, []float64{0, 0.2, 0.5, 1.0}, func(p *RunParams, sigma float64) { p.SigmaFrac = sigma })
	sw.modes = []PredictionMode{SyntheticError}
	if err := generalSweep(cfg, sw, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
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
	nets := []func(int64) *topo.Network{topo.Abvt, topo.Tinet, topo.Deltacom}
	xs := make([]float64, len(nets))
	scs := make([]*Scenario, len(nets))
	for i, mk := range nets {
		xs[i] = float64(i)
		scs[i] = NewScenario(cfg, mk(cfg.Seed))
	}
	// 1 Gbps in chunks/hour: 1e9 b/s * 3600 s / (100 MB * 8e6 b/MB).
	const gbpsChunksPerHour = 1e9 * 3600 / (demand.DefaultChunkMB * 8e6)
	sw := sweep{
		xs: xs,
		run: func(p RunParams, i int) (*Run, error) {
			p.CapacityFrac = absoluteCapacity(scs[i], gbpsChunksPerHour, p.Hour)
			return scs[i].MakeRun(p)
		},
		note: "averaged over %d samples per topology",
	}
	if err := generalSweep(cfg, sw, &figs[0], &figs[1], nil); err != nil {
		return nil, err
	}
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
