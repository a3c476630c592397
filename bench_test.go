// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section 6, Appendices C-D). Each BenchmarkTableN/BenchmarkFigN target
// runs the corresponding experiment at a bench-sized configuration and
// reports the paper's metrics through the benchmark output; run
//
//	go test -bench=. -benchmem
//
// and see EXPERIMENTS.md for the paper-vs-measured comparison. Substrate
// micro-benchmarks (LP pivots, min-cost flow, pipage, GPR) follow.
package jcr

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"jcr/internal/experiments"
	"jcr/internal/flow"
	"jcr/internal/gpr"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/msufp"
	"jcr/internal/placement"
)

// benchConfig is the bench-sized evaluation configuration: one hour, one
// Monte-Carlo run (the cmd/jcrsim tool exposes the full knobs).
func benchConfig() *experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Now = time.Now
	cfg.MonteCarloRuns = 1
	cfg.Hours = []int{40}
	cfg.GPRWindow = 96
	return cfg
}

// runExperiment executes one registry entry b.N times, printing its
// rendered output once so the bench log doubles as the figure data.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchConfig()
	var out string
	for i := 0; i < b.N; i++ {
		out, err = e.Run(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		fmt.Println(out)
	}
}

func BenchmarkTable1VideoStats(b *testing.B)      { runExperiment(b, "table1") }
func BenchmarkFig4Prediction(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFig5UnlimitedCapacity(b *testing.B) { runExperiment(b, "fig5") }
func BenchmarkFig6BinaryCache(b *testing.B)       { runExperiment(b, "fig6") }
func BenchmarkFig7VaryCache(b *testing.B)         { runExperiment(b, "fig7") }
func BenchmarkFig8VaryLink(b *testing.B)          { runExperiment(b, "fig8") }
func BenchmarkTable2Summary(b *testing.B)         { runExperiment(b, "table2") }
func BenchmarkTable3ExecTimes(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkTable4ExecTimes(b *testing.B)       { runExperiment(b, "table4") }
func BenchmarkFig11VaryVideos(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkFig12VaryChunkSize(b *testing.B)    { runExperiment(b, "fig12") }
func BenchmarkFig13PredictionError(b *testing.B)  { runExperiment(b, "fig13") }
func BenchmarkFig15VaryTopology(b *testing.B)     { runExperiment(b, "fig15") }

// ---- substrate micro-benchmarks ----

// BenchmarkAlg1Placement measures Algorithm 1 end to end at the default
// chunk-level scale (the Table 3 "Alg. 1" row).
func BenchmarkAlg1Placement(b *testing.B) {
	sc := experiments.NewScenario(benchConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{CapacityFrac: -1, Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Alg1(run.Decision, run.Dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyPlacement measures the heterogeneous-size greedy (the
// Table 4 "greedy" row).
func BenchmarkGreedyPlacement(b *testing.B) {
	sc := experiments.NewScenario(benchConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{FileLevel: true, CapacityFrac: -1, Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Greedy(run.Decision, run.Dist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlternating measures the general-case optimizer (Table 3
// "alternating").
func BenchmarkAlternating(b *testing.B) {
	sc := experiments.NewScenario(benchConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Alternating(run.Decision, AlternatingOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSUFPAlg2 measures Algorithm 2 at K=1000 on the Fig. 6 instance
// scale (Table 3 "Alg. 2").
func BenchmarkMSUFPAlg2(b *testing.B) {
	inst := benchMSUFPInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msufp.SolveAlg2(inst, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMSUFPSkutella measures the K=2 baseline [33].
func BenchmarkMSUFPSkutella(b *testing.B) {
	inst := benchMSUFPInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msufp.SolveAlg2(inst, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMSUFPInstance(b *testing.B) *msufp.Instance {
	b.Helper()
	net := Abovenet(1)
	rng := rand.New(rand.NewSource(2))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(5000)
	perEdge := make([]float64, len(net.Edges))
	aux := graph.NewAuxiliary(net.G, [][]graph.NodeID{{net.Origin, net.Edges[0]}})
	inst := &msufp.Instance{G: aux.G, Source: aux.VirtualSource[0]}
	for i := 0; i < 486; i++ {
		e := rng.Intn(len(net.Edges))
		d := 20 * (1 + rng.ExpFloat64())
		inst.Commodities = append(inst.Commodities, msufp.Commodity{Dest: net.Edges[e], Demand: d})
		perEdge[e] += d
	}
	// Feasibility on the base graph happened before the clone, so raise
	// the cloned arcs directly (arc IDs coincide).
	if err := net.AugmentFeasibility(perEdge); err != nil {
		b.Fatal(err)
	}
	for id := 0; id < net.G.NumArcs(); id++ {
		aux.G.SetArcCap(id, net.G.Arc(id).Cap)
	}
	return inst
}

// BenchmarkSimplexLP measures the dense simplex on a placement-LP-shaped
// instance.
func BenchmarkSimplexLP(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	build := func() *lp.Problem {
		const items, nodes, reqs = 30, 8, 120
		p := lp.NewProblem(items*nodes + reqs)
		p.SetSense(lp.Maximize)
		for r := 0; r < reqs; r++ {
			y := items*nodes + r
			p.SetObjectiveCoeff(y, 1+rng.Float64())
			p.SetBounds(y, 0, 1)
			idx := []int{y}
			val := []float64{1}
			for k := 0; k < 4; k++ {
				idx = append(idx, rng.Intn(items*nodes))
				val = append(val, -rng.Float64())
			}
			p.AddConstraint(idx, val, lp.LE, 0.1)
		}
		for v := 0; v < nodes; v++ {
			idx := make([]int, items)
			vals := make([]float64, items)
			for i := 0; i < items; i++ {
				idx[i], vals[i] = v*items+i, 1
				p.SetBounds(v*items+i, 0, 1)
			}
			p.AddConstraint(idx, vals, lp.LE, 5)
		}
		return p
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := build().Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinCostFlow measures the successive-shortest-paths solver on the
// Deltacom-sized network.
func BenchmarkMinCostFlow(b *testing.B) {
	net := Deltacom(1)
	rng := rand.New(rand.NewSource(8))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUniformCapacity(50)
	gg := net.G.Clone()
	super := gg.AddNode()
	for _, e := range net.Edges {
		gg.AddArc(e, super, 0, 40)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flow.MinCostFlow(nil, gg, net.Origin, super, 45); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPRFit measures one Gaussian-process fit on a 96-hour window.
func BenchmarkGPRFit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ys := make([]float64, 96)
	for i := range ys {
		ys[i] = 100 + 30*rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpr.FitAuto(ys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGreedyEager measures the greedy placement at the default
// chunk-level scale.
func BenchmarkGreedyEager(b *testing.B) {
	run := benchUncapChunkRun(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Greedy(run.Decision, run.Dist); err != nil {
			b.Fatal(err)
		}
	}
}

func benchUncapChunkRun(b *testing.B) *experiments.Run {
	b.Helper()
	sc := experiments.NewScenario(benchConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{CapacityFrac: -1, Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	return run
}

// BenchmarkAlternatingFileLevel measures the heterogeneous-size general
// case (the Table 4 "alternating" row).
func BenchmarkAlternatingFileLevel(b *testing.B) {
	sc := experiments.NewScenario(benchConfig(), nil)
	run, err := sc.MakeRun(experiments.RunParams{FileLevel: true, Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Alternating(run.Decision, AlternatingOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFCFRLP measures the exact fully fractional LP on a downsized
// instance (the regime it is intended for).
func BenchmarkFCFRLP(b *testing.B) {
	cfg := benchConfig()
	cfg.NumVideos = 2
	sc := experiments.NewScenario(cfg, nil)
	run, err := sc.MakeRun(experiments.RunParams{Hour: 40})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveFCFR(run.Decision); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKShortestPaths measures Yen's algorithm with the [3] baseline's
// default k=10 on the evaluation topology.
func BenchmarkKShortestPaths(b *testing.B) {
	net := Abovenet(1)
	rng := rand.New(rand.NewSource(12))
	net.AssignCosts(rng, 100, 200, 1, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range net.Edges {
			if got := graph.KShortestPaths(net.G, net.Origin, e, 10); len(got) == 0 {
				b.Fatal("no paths")
			}
		}
	}
}
