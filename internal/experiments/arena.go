package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// The arena pits every registered strategy (internal/strategy: the paper's
// algorithms and the related-work baselines) against the same grid of
// synthetic cells — topology x catalog size x Zipf skew x fault scenario —
// and ranks them on what the paper's evaluation cares about: how much
// demand is served, at what expected delay, at what congestion, in how
// much wall-clock time. Cells follow the Zipf sweep's construction
// (Abovenet-style networks, Zipf demand spread over edge nodes, uniform
// link capacities with feasibility augmentation); faulty cells
// additionally knock out a few links via the faults engine, the setting
// the alternating optimizer's best-effort path repair is built for.

const (
	// arenaTotalRate is the cell-wide request rate, matching the Zipf
	// sweep's scale.
	arenaTotalRate = 10000.0
	// arenaCapFrac sets link capacities to this fraction of the total
	// rate — looser than the paper's 0.7% so the capacity-oblivious
	// baselines are stressed on congestion rather than starved outright.
	arenaCapFrac = 0.02
	// arenaFaultLinks is how many links a faulty cell loses.
	arenaFaultLinks = 3
	// arenaTol is the relative slack for scorecard comparisons (served
	// fractions, delay dominance).
	arenaTol = 1e-9
)

// ArenaCell is one column of the sweep grid.
type ArenaCell struct {
	Topo    string  `json:"topo"`
	Catalog int     `json:"catalog"`
	Alpha   float64 `json:"alpha"`
	Faulty  bool    `json:"faulty"`
}

// Name is the cell's stable id, e.g. "abovenet/c24/a0.80/faulty".
func (c ArenaCell) Name() string {
	suffix := "clean"
	if c.Faulty {
		suffix = "faulty"
	}
	return fmt.Sprintf("%s/c%d/a%.2f/%s", c.Topo, c.Catalog, c.Alpha, suffix)
}

// arenaCells returns the sweep grid. Quick mode is the CI smoke subset:
// one topology, one catalog size, one skew, both fault scenarios.
func arenaCells(quick bool) []ArenaCell {
	topos := []string{"abovenet", "tinet"}
	catalogs := []int{16, 48}
	alphas := []float64{0.4, 1.2}
	if quick {
		topos = []string{"abovenet"}
		catalogs = []int{24}
		alphas = []float64{0.8}
	}
	var cells []ArenaCell
	for _, tp := range topos {
		for _, cat := range catalogs {
			for _, a := range alphas {
				for _, faulty := range []bool{false, true} {
					cells = append(cells, ArenaCell{Topo: tp, Catalog: cat, Alpha: a, Faulty: faulty})
				}
			}
		}
	}
	return cells
}

// ArenaResult is one (cell, strategy) outcome. Delay is the expected
// routing cost per unit of served demand; -1 when undefined (nothing
// served or the cell was not completed).
type ArenaResult struct {
	Cell       string  `json:"cell"`
	Strategy   string  `json:"strategy"`
	Status     string  `json:"status"` // "ok", "skipped", "failed"
	Served     float64 `json:"served_fraction"`
	Delay      float64 `json:"expected_delay"`
	Congestion float64 `json:"congestion"`
	Iterations int     `json:"iterations"`
	WallMS     float64 `json:"wall_ms"`
	// Method labels the dominant subroutine of the winning solve (the
	// routing method, e.g. "lp" or "sequential"); JSON-only — the CSV
	// column set is pinned.
	Method string `json:"method,omitempty"`
	Err    string `json:"error,omitempty"`
}

// ScoreRow is one strategy's aggregate line, ranked. Served and Congestion
// average over attempted (non-skipped) cells with failures scoring zero
// served; Delay averages over completed cells only (-1 when none).
type ScoreRow struct {
	Rank       int     `json:"rank"`
	Strategy   string  `json:"strategy"`
	Doc        string  `json:"doc"`
	CellsOK    int     `json:"cells_ok"`
	Skipped    int     `json:"skipped"`
	Failed     int     `json:"failed"`
	Served     float64 `json:"served_fraction"`
	Delay      float64 `json:"expected_delay"`
	Congestion float64 `json:"congestion"`
	WallMS     float64 `json:"wall_ms"`
}

// Scorecard is the arena's ranked outcome: one row per registered
// strategy plus the per-cell detail behind it.
type Scorecard struct {
	// Title names the sweep in rendered output; empty means the arena's.
	Title   string        `json:"title,omitempty"`
	Quick   bool          `json:"quick"`
	Seed    int64         `json:"seed"`
	Cells   []string      `json:"cells"`
	Rows    []ScoreRow    `json:"rows"`
	Results []ArenaResult `json:"results"`
}

// Arena runs the sweep: every registered strategy on every cell, fanned
// out through the bounded worker pool, deterministically merged. Quick
// selects the CI smoke grid. Wall-clock columns read cfg.Now; with no
// injected clock they render zero and the scorecard is bit-for-bit
// deterministic.
func Arena(ctx context.Context, cfg *Config, quick bool) (*Scorecard, error) {
	cells := arenaCells(quick)
	names := strategy.Names()
	specs := make([]*placement.Spec, len(cells))
	dists := make([][][]float64, len(cells))
	for ci, cell := range cells {
		spec, err := buildArenaCell(cfg, cell, ci)
		if err != nil {
			return nil, fmt.Errorf("arena: cell %s: %w", cell.Name(), err)
		}
		specs[ci] = spec
		dists[ci] = graph.AllPairs(spec.G)
	}
	results := make([]ArenaResult, len(cells)*len(names))
	err := par.Do(ctx, cfg.Workers, len(results), func(w int) error {
		ci, si := w/len(names), w%len(names)
		results[w] = runArenaBout(ctx, cfg, cells[ci], specs[ci], dists[ci], names[si])
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("arena: %w", err)
	}
	sc := &Scorecard{Quick: quick, Seed: cfg.Seed, Results: results}
	for _, cell := range cells {
		sc.Cells = append(sc.Cells, cell.Name())
	}
	sc.Rows = rankArena(names, results)
	return sc, nil
}

// buildArenaCell constructs one cell's spec: the named topology with
// seeded costs, Zipf(alpha) demand over the catalog spread across edge
// nodes, uniform link capacities augmented to feasibility, chunk-slot
// caches at the edges, and — for faulty cells — a few seeded link-down
// events applied through the faults engine.
func buildArenaCell(cfg *Config, cell ArenaCell, ci int) (*placement.Spec, error) {
	var net *topo.Network
	switch cell.Topo {
	case "abovenet":
		net = topo.Abovenet(cfg.Seed)
	case "tinet":
		net = topo.Tinet(cfg.Seed)
	default:
		return nil, fmt.Errorf("unknown topology %q", cell.Topo)
	}
	r := rng.Derive(cfg.Seed, 9000+int64(ci))
	net.AssignCosts(r, 100, 200, 1, 20)
	spec, edgeTotals := zipfSpec(net, cell.Catalog, cell.Alpha, arenaTotalRate, cfg.ChunkSlots, r)
	spec.Pinned = []graph.NodeID{net.Origin}
	net.SetUniformCapacity(arenaCapFrac * arenaTotalRate)
	if err := net.AugmentFeasibility(edgeTotals); err != nil {
		return nil, err
	}
	if !cell.Faulty {
		return spec, nil
	}
	links, err := faults.Links(spec.G)
	if err != nil {
		return nil, err
	}
	sc := &faults.Scenario{Name: cell.Name()}
	for _, l := range r.Perm(len(links))[:min(arenaFaultLinks, len(links))] {
		sc.Events = append(sc.Events, faults.Event{Kind: faults.LinkDown, Link: l, Start: 0, Duration: 1})
	}
	degraded, _, _, err := sc.Apply(0, spec, spec)
	if err != nil {
		return nil, err
	}
	return degraded, nil
}

// runArenaBout runs one strategy on one cell and scores it. Strategies
// run best-effort (fault cells may strand requests) and sequentially
// inside the bout — the arena's own worker pool is the parallelism.
func runArenaBout(ctx context.Context, cfg *Config, cell ArenaCell, spec *placement.Spec, dist [][]float64, name string) ArenaResult {
	st, err := strategy.New(name, strategy.Options{
		Seed:          cfg.Seed,
		Workers:       1,
		BestEffort:    true,
		NoSolverReuse: true,
	})
	if err != nil {
		return ArenaResult{Cell: cell.Name(), Strategy: name, Status: "failed", Delay: -1, Err: err.Error()}
	}
	inst := strategy.Instance{Spec: spec, Dist: dist}
	if sized, ok := st.(strategy.Sized); ok && !sized.Fits(inst) {
		return ArenaResult{Cell: cell.Name(), Strategy: name, Status: "skipped", Delay: -1, Err: "instance beyond the strategy's size limits"}
	}
	return scoreBout(ctx, cfg, cell.Name(), name, st, inst)
}

// scoreBout times st's decision on inst, validates the plan and scores
// it: the served fraction of the instance's demand, the expected delay
// per served unit and the congestion. The arena and the scaling sweep
// both score their bouts here.
func scoreBout(ctx context.Context, cfg *Config, cell, name string, st strategy.Strategy, inst strategy.Instance) ArenaResult {
	res := ArenaResult{Cell: cell, Strategy: name, Delay: -1}
	lap := cfg.stopwatch()
	plan, stats, err := st.Decide(ctx, inst)
	res.WallMS = lap().Seconds() * 1000
	res.Iterations = stats.Iterations
	res.Method = stats.Method
	if err == nil {
		err = strategy.Validate(inst, plan)
	}
	if err != nil {
		res.Status = "failed"
		res.Err = err.Error()
		return res
	}
	total := 0.0
	for i := range inst.Spec.Rates {
		for _, lam := range inst.Spec.Rates[i] {
			total += lam
		}
	}
	served := total - plan.UnservedMass()
	res.Status = "ok"
	res.Congestion = plan.MaxUtilization
	if total > 0 {
		res.Served = served / total
	}
	if served > 0 {
		res.Delay = plan.Cost / served
	}
	return res
}

// rankArena aggregates per-cell results into ranked rows: most served
// demand first, then lowest expected delay, then lowest congestion, then
// name for stability.
func rankArena(names []string, results []ArenaResult) []ScoreRow {
	rows := make([]ScoreRow, 0, len(names))
	for _, name := range names {
		row := ScoreRow{Strategy: name, Doc: strategy.Doc(name), Delay: -1}
		var delaySum float64
		for _, r := range results {
			if r.Strategy != name {
				continue
			}
			switch r.Status {
			case "skipped":
				row.Skipped++
			case "failed":
				row.Failed++ // scores zero served over the attempted set
			case "ok":
				row.CellsOK++
				row.Served += r.Served
				row.Congestion += r.Congestion
				delaySum += r.Delay
			}
			row.WallMS += r.WallMS
		}
		if attempted := row.CellsOK + row.Failed; attempted > 0 {
			row.Served /= float64(attempted)
		}
		if row.CellsOK > 0 {
			row.Delay = delaySum / float64(row.CellsOK)
			row.Congestion /= float64(row.CellsOK)
		}
		rows = append(rows, row)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		// All-skipped rows (the exact solver on oversized grids) sink.
		if (ra.CellsOK+ra.Failed == 0) != (rb.CellsOK+rb.Failed == 0) {
			return ra.CellsOK+ra.Failed > 0
		}
		if math.Abs(ra.Served-rb.Served) > arenaTol*(1+math.Abs(ra.Served)) {
			return ra.Served > rb.Served
		}
		da, db := rankDelay(ra.Delay), rankDelay(rb.Delay)
		if math.Abs(da-db) > arenaTol*(1+math.Abs(da)) && !(math.IsInf(da, 1) && math.IsInf(db, 1)) {
			return da < db
		}
		if math.Abs(ra.Congestion-rb.Congestion) > arenaTol*(1+math.Abs(ra.Congestion)) {
			return ra.Congestion < rb.Congestion
		}
		return ra.Strategy < rb.Strategy
	})
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}

// rankDelay maps the -1 "undefined" sentinel to +Inf for ordering.
func rankDelay(d float64) float64 {
	if d < 0 {
		return math.Inf(1)
	}
	return d
}

// Row finds a strategy's aggregate line.
func (sc *Scorecard) Row(name string) (ScoreRow, bool) {
	for _, r := range sc.Rows {
		if r.Strategy == name {
			return r, true
		}
	}
	return ScoreRow{}, false
}

// NeverDominatedOnServed checks the arena's headline claim for a
// strategy: no rival dominates it on served fraction — serving strictly
// more demand (beyond tolerance) while conceding nothing on either
// quality axis (expected delay, congestion). A rival that serves more
// only by paying in delay or congestion made a trade, not a win.
func (sc *Scorecard) NeverDominatedOnServed(name string) error {
	row, ok := sc.Row(name)
	if !ok {
		return fmt.Errorf("arena: strategy %q not in the scorecard", name)
	}
	for _, r := range sc.Rows {
		if r.Strategy == name {
			continue
		}
		servesMore := r.Served > row.Served+arenaTol*(1+row.Served)
		delayNoWorse := rankDelay(r.Delay) <= rankDelay(row.Delay)+arenaTol*(1+rankDelay(row.Delay))
		congNoWorse := r.Congestion <= row.Congestion+arenaTol*(1+row.Congestion)
		if servesMore && delayNoWorse && congNoWorse {
			return fmt.Errorf("arena: %s (served %.6f, delay %.4f, cong %.4f) dominates %s (served %.6f, delay %.4f, cong %.4f)",
				r.Strategy, r.Served, r.Delay, r.Congestion,
				name, row.Served, row.Delay, row.Congestion)
		}
	}
	return nil
}

// DelayDominates checks that strategy a's mean expected delay is no worse
// than b's (both must have completed cells).
func (sc *Scorecard) DelayDominates(a, b string) error {
	ra, ok := sc.Row(a)
	if !ok || ra.CellsOK == 0 {
		return fmt.Errorf("arena: %q completed no cells", a)
	}
	rb, ok := sc.Row(b)
	if !ok || rb.CellsOK == 0 {
		return fmt.Errorf("arena: %q completed no cells", b)
	}
	if ra.Delay > rb.Delay+arenaTol*(1+rb.Delay) {
		return fmt.Errorf("arena: %s delay %.4f exceeds %s delay %.4f", a, ra.Delay, b, rb.Delay)
	}
	return nil
}

// Render formats the scorecard as an aligned text table plus the
// per-cell detail grid.
func (sc *Scorecard) Render() string {
	var b strings.Builder
	mode := "full"
	if sc.Quick {
		mode = "quick"
	}
	title := sc.Title
	if title == "" {
		title = "baseline arena"
	}
	fmt.Fprintf(&b, "== %s (%s grid, %d cells, seed %d) ==\n", title, mode, len(sc.Cells), sc.Seed)
	fmt.Fprintf(&b, "%-4s %-16s %5s %5s %5s %9s %10s %7s %9s\n",
		"rank", "strategy", "ok", "skip", "fail", "served", "delay", "cong", "wall-ms")
	for _, r := range sc.Rows {
		fmt.Fprintf(&b, "%-4d %-16s %5d %5d %5d %9.4f %10s %7.3f %9.1f\n",
			r.Rank, r.Strategy, r.CellsOK, r.Skipped, r.Failed, r.Served, fmtDelay(r.Delay), r.Congestion, r.WallMS)
	}
	b.WriteString("\nper-cell detail:\n")
	fmt.Fprintf(&b, "%-26s %-16s %-7s %9s %10s %7s\n", "cell", "strategy", "status", "served", "delay", "cong")
	for _, r := range sc.Results {
		fmt.Fprintf(&b, "%-26s %-16s %-7s %9.4f %10s %7.3f\n",
			r.Cell, r.Strategy, r.Status, r.Served, fmtDelay(r.Delay), r.Congestion)
	}
	return b.String()
}

func fmtDelay(d float64) string {
	if d < 0 {
		return "-"
	}
	return fmt.Sprintf("%.4f", d)
}

// CSV emits the ranked rows followed by the per-cell detail, in one file
// (sections separated by a comment line, the Figure CSV convention).
func (sc *Scorecard) CSV() string {
	var b strings.Builder
	b.WriteString("# ranked scorecard\nrank,strategy,cells_ok,skipped,failed,served_fraction,expected_delay,congestion,wall_ms\n")
	for _, r := range sc.Rows {
		fmt.Fprintf(&b, "%d,%s,%d,%d,%d,%.6f,%s,%.6f,%.3f\n",
			r.Rank, r.Strategy, r.CellsOK, r.Skipped, r.Failed, r.Served, csvDelay(r.Delay), r.Congestion, r.WallMS)
	}
	b.WriteString("# per-cell detail\ncell,strategy,status,served_fraction,expected_delay,congestion,iterations,wall_ms,error\n")
	for _, r := range sc.Results {
		fmt.Fprintf(&b, "%s,%s,%s,%.6f,%s,%.6f,%d,%.3f,%s\n",
			r.Cell, r.Strategy, r.Status, r.Served, csvDelay(r.Delay), r.Congestion, r.Iterations, r.WallMS,
			strings.ReplaceAll(r.Err, ",", ";"))
	}
	return b.String()
}

func csvDelay(d float64) string {
	if d < 0 {
		return ""
	}
	return fmt.Sprintf("%.6f", d)
}

// JSON marshals the scorecard (indented, stable field order).
func (sc *Scorecard) JSON() ([]byte, error) {
	return json.MarshalIndent(sc, "", "  ")
}
