package experiments

import (
	"strings"
	"testing"

	"jcr/internal/par"
)

// renderAll concatenates every figure's text table and CSV so equality
// checks cover exactly what jcrsim writes to results/.
func renderAll(figs []Figure) string {
	var b strings.Builder
	for i := range figs {
		b.WriteString(figs[i].Render())
		b.WriteString(figs[i].CSV())
	}
	return b.String()
}

// TestParallelMatchesSequential is the determinism property test for the
// Monte-Carlo worker pool: a multi-worker run must reproduce the
// sequential run's rendered text and CSV output bit for bit. Fig13 covers
// the hour x run sample grid; Fig15 adds a sweep whose x changes the
// scenario; ZipfSweep covers the run-only grid.
func TestParallelMatchesSequential(t *testing.T) {
	for _, exp := range []struct {
		name string
		run  func(*Config) ([]Figure, error)
	}{
		{"Fig13", Fig13},
		{"Fig15", Fig15},
		{"ZipfSweep", ZipfSweep},
	} {
		t.Run(exp.name, func(t *testing.T) {
			seqCfg := tinyConfig()
			seqCfg.MonteCarloRuns = 2 // real fan-out: more samples than one
			seqCfg.Workers = 1
			parCfg := *seqCfg
			parCfg.Workers = 4

			seq, err := exp.run(seqCfg)
			if err != nil {
				t.Fatal(err)
			}
			par, err := exp.run(&parCfg)
			if err != nil {
				t.Fatal(err)
			}
			a, b := renderAll(seq), renderAll(par)
			if a != b {
				t.Errorf("parallel output differs from sequential:\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", a, b)
			}
		})
	}
}

// TestGPRCacheParallelSafe exercises the shared forecast cache from
// concurrent samples: every caller must see the same predictions no
// matter who computes them first.
func TestGPRCacheParallelSafe(t *testing.T) {
	cfg := tinyConfig()
	sc := NewScenario(cfg, nil)
	views := make([][]float64, 4)
	err := par.Do(nil, 4, 4, func(i int) error {
		v, err := sc.decisionViews(RunParams{Mode: GPRPrediction, Hour: 40})
		views[i] = v
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(views); i++ {
		if len(views[i]) != len(views[0]) {
			t.Fatalf("worker %d returned %d views, worker 0 returned %d", i, len(views[i]), len(views[0]))
		}
		for v := range views[i] {
			if views[i][v] != views[0][v] {
				t.Fatalf("worker %d video %d forecast %v != worker 0's %v", i, v, views[i][v], views[0][v])
			}
		}
	}
}
