package experiments

import "fmt"

// modeTag labels series by the demand the decision used.
func modeTag(m PredictionMode) string {
	if m == GPRPrediction {
		return "pred"
	}
	return "true"
}

// fig5Modes are the light/dark variants of the paper's Fig. 5.
var fig5Modes = []PredictionMode{TrueDemand, GPRPrediction}

// Fig5 reproduces the unlimited-link-capacity comparison: Algorithm 1
// (chunk level) / greedy (file level) vs the 'k shortest paths' joint
// scheme of [3] and the 'shortest path' placement of [38].
//
// Returned figures:
//   - Fig5a: chunk-level routing cost vs cache capacity zeta
//   - Fig5b: file-level routing cost vs cache capacity (in avg files)
//   - Fig5c: file-level max cache occupancy vs cache capacity
//   - Fig5d: file-level routing cost vs #candidate paths k for [3]
func Fig5(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	chunkCost := Figure{ID: "Fig5a", Title: "Unlimited link capacities, chunk level: routing cost",
		XLabel: "cache capacity (chunks)", YLabel: "routing cost"}
	fileCost := Figure{ID: "Fig5b", Title: "Unlimited link capacities, file level: routing cost",
		XLabel: "cache capacity (avg files)", YLabel: "routing cost"}
	fileOcc := Figure{ID: "Fig5c", Title: "Unlimited link capacities, file level: max cache occupancy",
		XLabel: "cache capacity (avg files)", YLabel: "max occupancy ratio"}
	fileK := Figure{ID: "Fig5d", Title: "Unlimited link capacities, file level: cost vs #candidate paths",
		XLabel: "#candidate paths k", YLabel: "routing cost"}

	cChunk := newCollector(&chunkCost)
	cFileCost := newCollector(&fileCost)
	cFileOcc := newCollector(&fileOcc)
	cFileK := newCollector(&fileK)
	samples := hourSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, mode := range fig5Modes {
			tag := modeTag(mode)
			// ---- chunk level: cost vs zeta ----
			for _, zeta := range []float64{4, 8, 12, 16, 20} {
				run, err := sc.MakeRun(RunParams{
					CapacityFrac: -1, CacheSlots: zeta,
					Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				res, err := scoreRoster(unlimitedRoster(false, cfg.CandidatePaths), run)
				if err != nil {
					return fmt.Errorf("Fig5a zeta=%v: %w", zeta, err)
				}
				for _, r := range res {
					s.add(cChunk, r.label+" ("+tag+")", zeta, r.cost)
				}
			}
			// ---- file level: cost and occupancy vs zeta ----
			for _, zeta := range []float64{1, 2, 3} {
				run, err := sc.MakeRun(RunParams{
					FileLevel: true, CapacityFrac: -1, CacheSlots: zeta,
					Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				res, err := scoreRoster(unlimitedRoster(true, cfg.CandidatePaths), run)
				if err != nil {
					return fmt.Errorf("Fig5b zeta=%v: %w", zeta, err)
				}
				for _, r := range res {
					s.add(cFileCost, r.label+" ("+tag+")", zeta, r.cost)
					s.add(cFileOcc, r.label+" ("+tag+")", zeta, r.occupancy)
				}
			}
			// ---- file level: cost vs k for [3] (greedy does not use k) ----
			run, err := sc.MakeRun(RunParams{
				FileLevel: true, CapacityFrac: -1,
				Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC),
			})
			if err != nil {
				return err
			}
			greedy, err := unlimitedRoster(true, cfg.CandidatePaths)[0].score(run)
			if err != nil {
				return fmt.Errorf("Fig5d: %w", err)
			}
			for _, k := range []int{2, 5, 10, 15} {
				ksp, err := kspMethod("k shortest paths [3]", k, ruleFixed).score(run)
				if err != nil {
					return fmt.Errorf("Fig5d k=%d: %w", k, err)
				}
				s.add(cFileK, "greedy (ours, "+tag+")", float64(k), greedy.cost)
				s.add(cFileK, "k shortest paths [3] ("+tag+")", float64(k), ksp.cost)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("averaged over %d samples (%d hours x %d Monte-Carlo runs)", len(samples), len(cfg.Hours), cfg.MonteCarloRuns)
	for _, c := range []*collector{cChunk, cFileCost, cFileOcc, cFileK} {
		c.finish(len(samples), note)
	}
	return []Figure{chunkCost, fileCost, fileOcc, fileK}, nil
}
