package experiments

import (
	"fmt"

	"jcr/internal/placement"
)

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
				costs, err := fig5ChunkMethods(cfg, run)
				if err != nil {
					return fmt.Errorf("Fig5a zeta=%v: %w", zeta, err)
				}
				for _, name := range sortedNames(costs) {
					s.add(cChunk, name+" ("+tag+")", zeta, costs[name])
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
				res, err := fig5FileMethods(cfg, run, cfg.CandidatePaths)
				if err != nil {
					return fmt.Errorf("Fig5b zeta=%v: %w", zeta, err)
				}
				for _, name := range sortedNames(res) {
					s.add(cFileCost, name+" ("+tag+")", zeta, res[name].cost)
					s.add(cFileOcc, name+" ("+tag+")", zeta, res[name].occupancy)
				}
			}
			// ---- file level: cost vs k for [3] ----
			for _, k := range []int{2, 5, 10, 15} {
				run, err := sc.MakeRun(RunParams{
					FileLevel: true, CapacityFrac: -1,
					Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				res, err := fig5FileMethods(cfg, run, k)
				if err != nil {
					return fmt.Errorf("Fig5d k=%d: %w", k, err)
				}
				s.add(cFileK, "greedy (ours, "+tag+")", float64(k), res["greedy (ours)"].cost)
				s.add(cFileK, "k shortest paths [3] ("+tag+")", float64(k), res["k shortest paths [3]"].cost)
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

// fig5ChunkMethods runs the three chunk-level contenders and returns the
// true-demand RNR (or method-specific) routing cost of each.
func fig5ChunkMethods(cfg *Config, run *Run) (map[string]float64, error) {
	out := map[string]float64{}
	origin := run.Scenario.Net.Origin

	a1, err := placement.Alg1(nil, run.Decision, run.Dist, placement.Alg1Options{})
	if err != nil {
		return nil, fmt.Errorf("Alg1: %w", err)
	}
	cost, err := EvaluateRNROnTruth(run, a1.Placement)
	if err != nil {
		return nil, err
	}
	out["Alg.1 (ours)"] = cost

	ksp, err := placement.KSP3(run.Decision, origin, cfg.CandidatePaths, nil)
	if err != nil {
		return nil, fmt.Errorf("KSP3: %w", err)
	}
	paths, err := placement.KSPServingPaths(run.Truth, ksp.Placement, origin, cfg.CandidatePaths)
	if err != nil {
		return nil, err
	}
	cost, _, _ = placement.EvaluateServing(run.Truth, paths, ksp.Placement)
	out["k shortest paths [3]"] = cost

	sp, _, err := placement.SP38(nil, run.Decision, origin, nil)
	if err != nil {
		return nil, fmt.Errorf("SP38: %w", err)
	}
	spPaths, err := placement.ShortestServingPaths(run.Truth, origin)
	if err != nil {
		return nil, err
	}
	cost, _, _ = placement.EvaluateServing(run.Truth, spPaths, sp)
	out["shortest path [38]"] = cost
	return out, nil
}

type costOcc struct {
	cost      float64
	occupancy float64
}

// fig5FileMethods runs the file-level contenders: our greedy respects byte
// capacities; the [3] and [38] baselines fill item slots and may overflow.
func fig5FileMethods(cfg *Config, run *Run, k int) (map[string]costOcc, error) {
	out := map[string]costOcc{}
	origin := run.Scenario.Net.Origin

	gr, err := placement.Greedy(run.Decision, run.Dist)
	if err != nil {
		return nil, fmt.Errorf("greedy: %w", err)
	}
	cost, err := EvaluateRNROnTruth(run, gr.Placement)
	if err != nil {
		return nil, err
	}
	out["greedy (ours)"] = costOcc{cost, run.Truth.MaxOccupancyRatio(gr.Placement)}

	ksp, err := placement.KSP3(run.Decision, origin, k, run.SlotCap)
	if err != nil {
		return nil, fmt.Errorf("KSP3: %w", err)
	}
	paths, err := placement.KSPServingPaths(run.Truth, ksp.Placement, origin, k)
	if err != nil {
		return nil, err
	}
	cost, _, _ = placement.EvaluateServing(run.Truth, paths, ksp.Placement)
	out["k shortest paths [3]"] = costOcc{cost, run.Truth.MaxOccupancyRatio(ksp.Placement)}

	sp, _, err := placement.SP38(nil, run.Decision, origin, run.SlotCap)
	if err != nil {
		return nil, fmt.Errorf("SP38: %w", err)
	}
	spPaths, err := placement.ShortestServingPaths(run.Truth, origin)
	if err != nil {
		return nil, err
	}
	cost, _, _ = placement.EvaluateServing(run.Truth, spPaths, sp)
	out["shortest path [38]"] = costOcc{cost, run.Truth.MaxOccupancyRatio(sp)}
	return out, nil
}
