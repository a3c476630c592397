package experiments

import (
	"strings"
	"testing"
)

// tinyConfig keeps experiment tests fast while exercising the full paths.
func tinyConfig() *Config {
	cfg := DefaultConfig()
	cfg.MonteCarloRuns = 1
	cfg.Hours = []int{40}
	cfg.GPRWindow = 72
	return cfg
}

// findSeries locates a series by name in a figure.
func findSeries(t *testing.T, fig *Figure, name string) *Series {
	t.Helper()
	for i := range fig.Series {
		if fig.Series[i].Name == name {
			return &fig.Series[i]
		}
	}
	t.Fatalf("%s: series %q not found (have %v)", fig.ID, name, seriesNames(fig))
	return nil
}

func seriesNames(fig *Figure) []string {
	var out []string
	for i := range fig.Series {
		out = append(out, fig.Series[i].Name)
	}
	return out
}

// yAt returns the series value at x.
func yAt(t *testing.T, s *Series, x float64) float64 {
	t.Helper()
	for i := range s.X {
		if s.X[i] == x {
			return s.Y[i]
		}
	}
	t.Fatalf("series %q has no point at x=%v", s.Name, x)
	return 0
}

func TestTable1Renders(t *testing.T) {
	out := Table1()
	for _, want := range []string{"dNCWe_6HAM8", "54 chunks", "1949666.52"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 output missing %q", want)
		}
	}
}

func TestScenarioDeterminism(t *testing.T) {
	cfg := tinyConfig()
	a := NewScenario(cfg, nil)
	b := NewScenario(cfg, nil)
	ra, err := a.MakeRun(RunParams{Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.MakeRun(RunParams{Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra.Truth.Rates {
		for v := range ra.Truth.Rates[i] {
			if ra.Truth.Rates[i][v] != rb.Truth.Rates[i][v] {
				t.Fatal("same seed produced different demand matrices")
			}
		}
	}
}

func TestMakeRunShapes(t *testing.T) {
	cfg := tinyConfig()
	sc := NewScenario(cfg, nil)
	chunk, err := sc.MakeRun(RunParams{Hour: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunk.Items) != 54 {
		t.Errorf("chunk catalog size = %d, want 54", len(chunk.Items))
	}
	if chunk.Truth.ItemSize != nil {
		t.Error("chunk-level run should have homogeneous sizes")
	}
	file, err := sc.MakeRun(RunParams{FileLevel: true, Hour: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Items) != 10 || file.Truth.ItemSize == nil {
		t.Errorf("file catalog size = %d (itemSize nil=%v), want 10 heterogeneous", len(file.Items), file.Truth.ItemSize == nil)
	}
	// Only edge nodes get requests.
	for i := range chunk.Truth.Rates {
		for v, r := range chunk.Truth.Rates[i] {
			if r > 0 && chunk.Scenario.Net.Internal(v) {
				t.Fatalf("internal node %d has demand", v)
			}
		}
	}
	// Synthetic-error mode with sigma 0 reproduces the truth.
	zero, err := sc.MakeRun(RunParams{Mode: SyntheticError, SigmaFrac: 0, Hour: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := range zero.Truth.Rates {
		for v := range zero.Truth.Rates[i] {
			if zero.Decision.Rates[i][v] != zero.Truth.Rates[i][v] {
				t.Fatal("sigma=0 decision demand differs from truth")
			}
		}
	}
}

func TestFig5Orderings(t *testing.T) {
	figs, err := Fig5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	chunk := &figs[0]
	ours := findSeries(t, chunk, "Alg.1 (ours) (true)")
	ksp := findSeries(t, chunk, "k shortest paths [3] (true)")
	sp := findSeries(t, chunk, "shortest path [38] (true)")
	for _, zeta := range []float64{4, 12, 20} {
		o, k3, s38 := yAt(t, ours, zeta), yAt(t, ksp, zeta), yAt(t, sp, zeta)
		if o >= k3 || o >= s38 {
			t.Errorf("zeta=%v: Alg.1 cost %v should beat [3] %v and [38] %v", zeta, o, k3, s38)
		}
	}
	// Cost decreases with cache capacity.
	if yAt(t, ours, 20) >= yAt(t, ours, 4) {
		t.Error("Alg.1 cost should fall as caches grow")
	}
	// File level: our occupancy feasible, baselines overflow (Fig. 5's
	// headline infeasibility observation).
	occ := &figs[2]
	if v := yAt(t, findSeries(t, occ, "greedy (ours) (true)"), 2); v > 1+1e-9 {
		t.Errorf("greedy occupancy %v > 1", v)
	}
	if v := yAt(t, findSeries(t, occ, "k shortest paths [3] (true)"), 2); v <= 1 {
		t.Errorf("[3] occupancy %v should exceed 1 under heterogeneous sizes", v)
	}
	if v := yAt(t, findSeries(t, occ, "shortest path [38] (true)"), 2); v <= 1 {
		t.Errorf("[38] occupancy %v should exceed 1 under heterogeneous sizes", v)
	}
}

func TestFig6Claims(t *testing.T) {
	figs, err := Fig6(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost, cong := &figs[0], &figs[1]
	const cf = 0.035
	a2 := yAt(t, findSeries(t, cost, "Alg.2 K=1000 (ours) (true)"), cf)
	split := yAt(t, findSeries(t, cost, "splittable flow (true)"), cf)
	if a2 > split*1.02 {
		t.Errorf("Alg.2 cost %v should be near/below the splittable bound %v", a2, split)
	}
	rnrCong := yAt(t, findSeries(t, cong, "RNR [3] (true)"), cf)
	a2Cong := yAt(t, findSeries(t, cong, "Alg.2 K=1000 (ours) (true)"), cf)
	if rnrCong < 5*a2Cong {
		t.Errorf("RNR congestion %v should dwarf Alg.2's %v", rnrCong, a2Cong)
	}
}

func TestFig7Claims(t *testing.T) {
	figs, err := Fig7(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cong := &figs[1]
	const zeta = 12
	alt := yAt(t, findSeries(t, cong, "alternating (ours) (true)"), zeta)
	spRnr := yAt(t, findSeries(t, cong, "SP + RNR [3] (true)"), zeta)
	kspRnr := yAt(t, findSeries(t, cong, "k-SP + RNR [3] (true)"), zeta)
	if alt >= spRnr || alt >= kspRnr {
		t.Errorf("alternating congestion %v should be far below SP+RNR %v and k-SP+RNR %v", alt, spRnr, kspRnr)
	}
	// File level: only ours respects cache capacities.
	occ := &figs[4]
	if v := yAt(t, findSeries(t, occ, "alternating (ours) (true)"), 2); v > 1+1e-9 {
		t.Errorf("alternating occupancy %v > 1", v)
	}
	if v := yAt(t, findSeries(t, occ, "SP [38] (true)"), 2); v <= 1 {
		t.Errorf("[38] occupancy %v should exceed 1", v)
	}
}

func TestTable2AndExecTimes(t *testing.T) {
	cfg := tinyConfig()
	out, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alternating (ours)", "IC-FR", "Alg.2 (K=1000)", "splittable"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
	t3, err := ExecTimes(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t3, "Alg. 1 (ours)") || !strings.Contains(t3, "Table 3") {
		t.Errorf("Table 3 malformed:\n%s", t3)
	}
	t4, err := ExecTimes(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t4, "greedy (ours)") || !strings.Contains(t4, "Table 4") {
		t.Errorf("Table 4 malformed:\n%s", t4)
	}
}

func TestFig4Runs(t *testing.T) {
	cfg := tinyConfig()
	figs, err := Fig4(cfg, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 4 { // 3 videos + summary
		t.Fatalf("Fig4 returned %d figures, want 4", len(figs))
	}
	for _, f := range figs[:3] {
		tr := findSeries(t, &f, "truth")
		pr := findSeries(t, &f, "prediction")
		if len(tr.X) != 10 || len(pr.X) != 10 {
			t.Errorf("%s: series lengths %d/%d, want 10", f.ID, len(tr.X), len(pr.X))
		}
		for _, y := range pr.Y {
			if y < 0 {
				t.Errorf("%s: negative prediction", f.ID)
			}
		}
	}
}

func TestFig13SigmaZeroMatchesTruthDecision(t *testing.T) {
	figs, err := Fig13(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost := &figs[0]
	alt := findSeries(t, cost, "alternating (ours)")
	if len(alt.X) != 4 {
		t.Fatalf("expected 4 sigma points, got %d", len(alt.X))
	}
}

func TestRegistryAndLookup(t *testing.T) {
	reg := Registry()
	if len(reg) != 21 {
		t.Errorf("registry has %d experiments, want 21", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Description == "" || e.Run == nil {
			t.Errorf("experiment %+v incomplete", e.ID)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Lookup("fig5"); err != nil {
		t.Error(err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestFigureRender(t *testing.T) {
	fig := Figure{ID: "X", Title: "t", XLabel: "x", YLabel: "y"}
	c := newCollector(&fig)
	c.series("a").addPoint(1, 2)
	c.series("a").addPoint(2, 4)
	c.series("b").addPoint(1, 6)
	c.finish(2, "note text")
	out := fig.Render()
	for _, want := range []string{"== X: t ==", "a", "b", "note text", "1", "2"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Averaging by finish: a(1) accumulated 2 over 2 samples -> 1.
	if yAt(t, findSeries(t, &fig, "a"), 1) != 1 {
		t.Error("finish did not average by sample count")
	}
	empty := Figure{ID: "E", Title: "none"}
	if !strings.Contains(empty.Render(), "no data") {
		t.Error("empty figure should render a placeholder")
	}
}

func TestEvaluateDecisionOnTruthFallback(t *testing.T) {
	cfg := tinyConfig()
	sc := NewScenario(cfg, nil)
	run, err := sc.MakeRun(RunParams{Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Decide with NO paths at all: every request falls back to RNR from
	// the pinned origin; cost must equal the origin-RNR cost.
	pl := run.Decision.NewPlacement()
	cost, _, err := EvaluateDecisionOnTruth(run, pl, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, wantCost := run.Truth.RNRSources(pl, run.Dist)
	if diff := cost - wantCost; diff > 1e-6*wantCost || diff < -1e-6*wantCost {
		t.Errorf("fallback cost %v != RNR cost %v", cost, wantCost)
	}
}

func TestRegimesSeparates(t *testing.T) {
	out, err := Regimes(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FC-FR optimum", "IC-FR optimum", "IC-IR optimum", "penalty"} {
		if !strings.Contains(out, want) {
			t.Errorf("regimes output missing %q", want)
		}
	}
}

func TestAblationRuns(t *testing.T) {
	out, err := Ablation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"plain pipage", "with polish", "LP + pipage", "greedy", "sequential"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

// TestRenderedOutputBitForBit pins the determinism contract restored by
// injecting the clock (Config.Now) instead of calling time.Now in the
// library: with the default nil Now, two runs of the timing-bearing
// renderers — the ablation table and both execution-time tables, which
// all use Config.stopwatch — must produce byte-identical output,
// parallel workers and all.
func TestRenderedOutputBitForBit(t *testing.T) {
	render := func() string {
		cfg := tinyConfig()
		abl, err := Ablation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := ExecTimes(cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		t4, err := ExecTimes(cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		return abl + "\n" + t3 + "\n" + t4
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("rendered output differs between identical runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if strings.Contains(first, "NaN") {
		t.Errorf("rendered output contains NaN:\n%s", first)
	}
}

func TestZipfSweepShape(t *testing.T) {
	figs, err := ZipfSweep(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	cost := &figs[0]
	ours := findSeries(t, cost, "alternating (ours)")
	// Caching gains grow with skew: cost at alpha=1.2 below alpha=0.4.
	if yAt(t, ours, 1.2) >= yAt(t, ours, 0.4) {
		t.Errorf("Zipf: cost should fall with skew, got %v at 0.4 vs %v at 1.2",
			yAt(t, ours, 0.4), yAt(t, ours, 1.2))
	}
}

func TestOnlineShape(t *testing.T) {
	figs, err := Online(tinyConfig(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("online returned %d figures", len(figs))
	}
	churn := &figs[2]
	static := findSeries(t, churn, "static alternating")
	for i := range static.Y {
		if static.Y[i] != 0 {
			t.Errorf("static policy churned: %v", static.Y)
			break
		}
	}
	for _, s := range figs[0].Series {
		if len(s.X) != 4 {
			t.Errorf("series %q has %d hours, want 4", s.Name, len(s.X))
		}
	}
}

func TestTable5Renders(t *testing.T) {
	out, err := Table5(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Abvt", "Tinet", "Deltacom", "1 Gbps", "4500"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table5 missing %q", want)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	fig := Figure{XLabel: "x,axis"}
	c := newCollector(&fig)
	c.series("a").addPoint(1, 2.5)
	c.series(`b "q"`).addPoint(1, 3)
	c.series("a").addPoint(2, 5)
	c.finish(1)
	out := fig.CSV()
	for _, want := range []string{`"x,axis"`, `"b ""q"""`, "1,2.5,3", "2,5,"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q in:\n%s", want, out)
		}
	}
}

func TestAbsoluteCapacityConversion(t *testing.T) {
	cfg := tinyConfig()
	sc := NewScenario(cfg, nil)
	frac := absoluteCapacity(sc, 4500, 40)
	if frac <= 0 || frac >= 1 {
		t.Fatalf("capacity fraction = %v, want a small positive fraction", frac)
	}
	// Round trip: frac * total rate == 4500.
	run, err := sc.MakeRun(RunParams{CapacityFrac: frac, Hour: 40})
	if err != nil {
		t.Fatal(err)
	}
	// Non-augmented links should carry exactly the 1 Gbps capacity; the
	// augmentation only raises some of them, so take the minimum.
	minCap := run.Truth.G.Arc(0).Cap
	for id := 1; id < run.Truth.G.NumArcs(); id++ {
		if c := run.Truth.G.Arc(id).Cap; c < minCap {
			minCap = c
		}
	}
	if minCap < 4499 || minCap > 4501 {
		t.Errorf("min link capacity = %v, want ~4500 chunks/hour", minCap)
	}
}
