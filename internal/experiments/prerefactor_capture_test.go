package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updatePreRefactor = flag.Bool("update-prerefactor", false, "rewrite the pre-refactor golden outputs")

// preRefactorRender produces the rendered outputs the strategy-layer
// refactor must preserve bit for bit: Fig. 5 (the Alg. 1 / greedy vs
// [3]/[38] comparison, rendered and as full-precision CSV), Figs. 7-8 and
// the appendix sweeps of Figs. 11-13 and 15 (the general-case contenders,
// as CSV), the Zipf sweep (as CSV), the fault-robustness extension (the
// online controller and its policies), the online experiment (plain,
// warm-started and static alternating against the fixed-path baselines),
// Table 2 (the qualitative summary built on the alternating optimizer) and
// the regime comparison (exact solvers and both alternating variants). All
// use tinyConfig with no injected clock, so every byte is a pure function
// of the seed.
func preRefactorRender(t *testing.T, id string) string {
	t.Helper()
	cfg := tinyConfig()
	switch id {
	case "fig5":
		figs, err := Fig5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := range figs {
			b.WriteString(figs[i].Render())
			b.WriteByte('\n')
		}
		return b.String()
	case "fig5csv":
		figs, err := Fig5(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return figuresCSV(figs)
	case "general":
		var figs []Figure
		for _, f := range []func(*Config) ([]Figure, error){Fig7, Fig8} {
			fs, err := f(cfg)
			if err != nil {
				t.Fatal(err)
			}
			figs = append(figs, fs...)
		}
		return figuresCSV(figs)
	case "appendix":
		var figs []Figure
		for _, f := range []func(*Config) ([]Figure, error){Fig11, Fig12, Fig13, Fig15} {
			fs, err := f(cfg)
			if err != nil {
				t.Fatal(err)
			}
			figs = append(figs, fs...)
		}
		return figuresCSV(figs)
	case "zipf":
		figs, err := ZipfSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return figuresCSV(figs)
	case "fault":
		figs, err := FigFault(context.Background(), cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := range figs {
			b.WriteString(figs[i].Render())
			b.WriteByte('\n')
		}
		return b.String()
	case "online":
		figs, err := Online(cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for i := range figs {
			b.WriteString(figs[i].Render())
			b.WriteByte('\n')
		}
		return b.String()
	case "tables":
		t2, err := Table2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := Regimes(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return t2 + "\n" + rg
	default:
		t.Fatalf("unknown pre-refactor golden id %q", id)
		return ""
	}
}

// figuresCSV concatenates the figures' full-precision CSV renderings, each
// headed by its id: Render's %.4g cannot see last-digit drift, %g can.
func figuresCSV(figs []Figure) string {
	var b strings.Builder
	for i := range figs {
		b.WriteString("# " + figs[i].ID + "\n")
		b.WriteString(figs[i].CSV())
	}
	return b.String()
}

// TestPreRefactorOutputsBitForBit pins the experiment outputs that predate
// the strategy-layer extraction: rewiring the solvers behind
// internal/strategy must not change a single byte of them.
func TestPreRefactorOutputsBitForBit(t *testing.T) {
	for _, id := range []string{"fig5", "fig5csv", "general", "appendix", "zipf", "fault", "tables", "online"} {
		id := id
		t.Run(id, func(t *testing.T) {
			got := preRefactorRender(t, id)
			path := filepath.Join("testdata", "prerefactor_"+id+".golden")
			if *updatePreRefactor {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s output changed versus the pre-refactor golden (run with -update-prerefactor only if the change is intended):\n--- got ---\n%s", id, got)
			}
		})
	}
}
