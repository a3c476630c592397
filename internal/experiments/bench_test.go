package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"jcr/internal/graph"
	"jcr/internal/strategy"
)

// harnessConfig is the configuration the harness, scaling and arena
// benchmarks time: the default evaluation setup with one Monte-Carlo run.
func harnessConfig() *Config {
	cfg := DefaultConfig()
	cfg.Now = time.Now
	cfg.MonteCarloRuns = 1
	return cfg
}

// BenchmarkHarnessTable2, BenchmarkHarnessFig5 and BenchmarkHarnessFig6
// time one full pass of the paper's Table 2, Fig. 5 and Fig. 6 experiments
// at the default configuration.
func BenchmarkHarnessTable2(b *testing.B) { benchmarkHarness(b, "table2") }

func BenchmarkHarnessFig5(b *testing.B) { benchmarkHarness(b, "fig5") }

func BenchmarkHarnessFig6(b *testing.B) { benchmarkHarness(b, "fig6") }

func benchmarkHarness(b *testing.B, id string) {
	e, err := Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := harnessConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalingCells times one alternating solve per representative
// composite cell — K cost-assigned Abovenet blocks stitched through
// gateways, the scaling experiment's construction.
func BenchmarkScalingCells(b *testing.B) {
	cfg := harnessConfig()
	for _, c := range []struct {
		blocks, catalog int
	}{
		{4, 16},
		{16, 16},
		{16, 48},
	} {
		b.Run(fmt.Sprintf("x%d_c%d", c.blocks, c.catalog), func(b *testing.B) {
			spec, err := buildScalingCell(cfg, ScalingCell{Blocks: c.blocks, Catalog: c.catalog})
			if err != nil {
				b.Fatal(err)
			}
			inst := strategy.Instance{Spec: spec, Dist: graph.AllPairs(spec.G)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st := &strategy.Alternating{Options: strategy.Options{Seed: 1, MaxIters: 4, BestEffort: true}}
				if _, _, err := st.Decide(context.Background(), inst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkArenaQuick times one pass of the CI quick arena grid (every
// strategy on a clean and a faulty cell), the end-to-end cost of the
// scorecard pipeline.
func BenchmarkArenaQuick(b *testing.B) {
	cfg := harnessConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Arena(context.Background(), cfg, true); err != nil {
			b.Fatal(err)
		}
	}
}
