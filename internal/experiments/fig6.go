package experiments

import (
	"fmt"
	"math"

	"jcr/internal/graph"
	"jcr/internal/msufp"
	"jcr/internal/placement"
)

// fig6Instance builds the binary-cache-capacity MSUFP instance: the origin
// server plus one designated edge node store the entire catalog; every
// request is a commodity from the virtual source (Lemma 4.5 / Fig. 10).
type fig6Instance struct {
	aux  *graph.Auxiliary
	inst *msufp.Instance
	reqs []placement.Request
	// eng caches the virtual source's shortest-path tree on the auxiliary
	// graph across the instance's solvers and truth evaluations (one
	// engine per instance: the auxiliary graph differs from the base, so
	// sharing the Run's engine would thrash its home).
	eng *graph.Engine
}

func newFig6Instance(run *Run, spec *placement.Spec) *fig6Instance {
	net := run.Scenario.Net
	sources := []graph.NodeID{net.Origin, net.Edges[0]}
	aux := graph.NewAuxiliary(spec.G, [][]graph.NodeID{sources})
	reqs := spec.Requests()
	eng := graph.NewEngine()
	inst := &msufp.Instance{G: aux.G, Source: aux.VirtualSource[0], Eng: eng}
	for _, rq := range reqs {
		inst.Commodities = append(inst.Commodities, msufp.Commodity{
			Dest:   rq.Node,
			Demand: spec.Rates[rq.Item][rq.Node],
		})
	}
	return &fig6Instance{aux: aux, inst: inst, reqs: reqs, eng: eng}
}

// evaluateOnTruth routes the TRUE demand over the decided per-request
// paths; unanticipated requests use the least-cost path from the virtual
// source. Virtual arcs carry no cost or load.
func (fi *fig6Instance) evaluateOnTruth(run *Run, asgn *msufp.Assignment) (cost, maxUtil float64, err error) {
	truth := run.Truth
	decided := map[placement.Request]graph.Path{}
	for i, rq := range fi.reqs {
		decided[rq] = asgn.Paths[i]
	}
	g := fi.aux.G
	loads := make([]float64, run.Truth.G.NumArcs())
	var tree *graph.ShortestTree
	for _, rq := range truth.Requests() {
		lam := truth.Rates[rq.Item][rq.Node]
		p, ok := decided[rq]
		if !ok {
			if tree == nil {
				t := fi.eng.Tree(g, fi.inst.Source)
				tree = &t
			}
			p, ok = tree.PathTo(g, rq.Node)
			if !ok {
				return 0, 0, fmt.Errorf("experiments: Fig6 requester %d unreachable", rq.Node)
			}
		}
		base, _ := fi.aux.StripVirtual(p)
		for _, id := range base.Arcs {
			loads[id] += lam
			cost += lam * run.Truth.G.Arc(id).Cost
		}
	}
	for id, load := range loads {
		c := run.Truth.G.Arc(id).Cap
		if math.IsInf(c, 1) || c <= 0 {
			continue
		}
		if u := load / c; u > maxUtil {
			maxUtil = u
		}
	}
	return cost, maxUtil, nil
}

// Fig6 reproduces the binary-cache-capacity comparison: Algorithm 2 with a
// large K vs the state-of-the-art [33] (K=2), the splittable lower bound,
// and route-to-nearest-replica [3]. Figures:
//   - Fig6a/b: chunk-level cost / congestion vs link capacity fraction
//   - Fig6c/d: file-level cost / congestion vs link capacity fraction
//   - Fig6e:   chunk-level congestion vs K at the default capacity
func Fig6(cfg *Config) ([]Figure, error) {
	sc := NewScenario(cfg, nil)
	chunkCost := Figure{ID: "Fig6a", Title: "Binary cache capacities, chunk level: routing cost",
		XLabel: "link capacity (fraction of total rate)", YLabel: "routing cost"}
	chunkCong := Figure{ID: "Fig6b", Title: "Binary cache capacities, chunk level: congestion",
		XLabel: "link capacity (fraction of total rate)", YLabel: "max load/capacity"}
	fileCost := Figure{ID: "Fig6c", Title: "Binary cache capacities, file level: routing cost",
		XLabel: "link capacity (fraction of total rate)", YLabel: "routing cost"}
	fileCong := Figure{ID: "Fig6d", Title: "Binary cache capacities, file level: congestion",
		XLabel: "link capacity (fraction of total rate)", YLabel: "max load/capacity"}
	varyK := Figure{ID: "Fig6e", Title: "Binary cache capacities, chunk level: congestion vs K",
		XLabel: "K", YLabel: "max load/capacity"}

	cChunkCost := newCollector(&chunkCost)
	cChunkCong := newCollector(&chunkCong)
	cFileCost := newCollector(&fileCost)
	cFileCong := newCollector(&fileCong)
	cVaryK := newCollector(&varyK)

	// The paper's Fig. 6 uses a higher default link capacity (15 Gbps,
	// about 3.5% of the total rate) than the general case, keeping
	// lambda_max somewhat below c_min as Theorem 4.7's regime requires.
	capFracs := []float64{0.007, 0.015, 0.035, 0.07}
	ks := []int{1, 2, 5, 10, 100, 1000}
	samples := hourSamples(cfg)
	err := runSampleSet(nil, cfg, samples, func(s *sample) error {
		for _, mode := range fig5Modes {
			tag := modeTag(mode)
			for _, fileLevel := range []bool{false, true} {
				costFig, congFig := cChunkCost, cChunkCong
				if fileLevel {
					costFig, congFig = cFileCost, cFileCong
				}
				for _, cf := range capFracs {
					run, err := sc.MakeRun(RunParams{
						FileLevel: fileLevel, CapacityFrac: cf,
						Mode: mode, Hour: s.Hour, MCSeed: int64(s.MC),
					})
					if err != nil {
						return err
					}
					fi := newFig6Instance(run, run.Decision)
					record := func(name string, asgn *msufp.Assignment) error {
						cost, cong, err := fi.evaluateOnTruth(run, asgn)
						if err != nil {
							return err
						}
						s.add(costFig, name+" ("+tag+")", cf, cost)
						s.add(congFig, name+" ("+tag+")", cf, cong)
						return nil
					}
					a1000, err := msufp.SolveAlg2(nil, fi.inst, 1000)
					if err != nil {
						return fmt.Errorf("Fig6 Alg2 K=1000: %w", err)
					}
					if err := record("Alg.2 K=1000 (ours)", a1000); err != nil {
						return err
					}
					a2, err := msufp.SolveAlg2(nil, fi.inst, 2)
					if err != nil {
						return fmt.Errorf("Fig6 [33] K=2: %w", err)
					}
					if err := record("[33] (K=2)", a2); err != nil {
						return err
					}
					rnr, err := msufp.SolveRNR(fi.inst)
					if err != nil {
						return fmt.Errorf("Fig6 RNR: %w", err)
					}
					if err := record("RNR [3]", rnr); err != nil {
						return err
					}
					// Splittable lower bound on the TRUE demand.
					truthFi := newFig6Instance(run, run.Truth)
					split, err := truthFi.inst.SplittableOptimum(nil)
					if err != nil {
						return fmt.Errorf("Fig6 splittable: %w", err)
					}
					s.add(costFig, "splittable flow ("+tag+")", cf, split.Cost)
				}
				if fileLevel {
					continue
				}
				// Congestion vs K at Fig. 6's default capacity
				// (the paper's 15 Gbps, ~3.5% of total rate).
				run, err := sc.MakeRun(RunParams{
					CapacityFrac: 0.035,
					Mode:         mode, Hour: s.Hour, MCSeed: int64(s.MC),
				})
				if err != nil {
					return err
				}
				fi := newFig6Instance(run, run.Decision)
				for _, k := range ks {
					asgn, err := msufp.SolveAlg2(nil, fi.inst, k)
					if err != nil {
						return fmt.Errorf("Fig6e K=%d: %w", k, err)
					}
					_, cong, err := fi.evaluateOnTruth(run, asgn)
					if err != nil {
						return err
					}
					s.add(cVaryK, "Alg.2 ("+tag+")", float64(k), cong)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	note := fmt.Sprintf("averaged over %d samples", len(samples))
	for _, c := range []*collector{cChunkCost, cChunkCong, cFileCost, cFileCong, cVaryK} {
		c.finish(len(samples), note)
	}
	return []Figure{chunkCost, chunkCong, fileCost, fileCong, varyK}, nil
}
