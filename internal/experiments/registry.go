package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Experiment is one runnable reproduction target.
type Experiment struct {
	ID          string
	Description string
	// Run executes the experiment and returns its rendered output. The
	// context, when non-nil, cancels long runs between solver iterations.
	Run func(ctx context.Context, cfg *Config) (string, error)
	// Figures, when non-nil, returns the structured data behind the
	// rendering (text tables render figure data; table experiments
	// produce prose and leave this nil). Used for CSV export.
	Figures func(ctx context.Context, cfg *Config) ([]Figure, error)
	// Score, when non-nil, runs the experiment as a ranked scorecard
	// (the arena, the scaling sweep); quick selects the CI smoke grid.
	// cmd/jcrsim archives scorecards as CSV and JSON.
	Score func(ctx context.Context, cfg *Config, quick bool) (*Scorecard, error)
	// Check, when non-nil, enforces the scorecard's headline claims (the
	// ones EXPERIMENTS.md states for the experiment); cmd/jcrsim fails the
	// run on a violated claim.
	Check func(sc *Scorecard) error
}

// Registry lists every reproduced table and figure by id.
func Registry() []Experiment {
	renderFigs := func(f func(context.Context, *Config) ([]Figure, error)) func(context.Context, *Config) (string, error) {
		return func(ctx context.Context, cfg *Config) (string, error) {
			figs, err := f(ctx, cfg)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for i := range figs {
				b.WriteString(figs[i].Render())
				b.WriteByte('\n')
			}
			return b.String(), nil
		}
	}
	// The pre-fault experiments predate context plumbing: adapt them.
	figs := func(f func(*Config) ([]Figure, error)) func(context.Context, *Config) ([]Figure, error) {
		return func(_ context.Context, cfg *Config) ([]Figure, error) { return f(cfg) }
	}
	text := func(f func(*Config) (string, error)) func(context.Context, *Config) (string, error) {
		return func(_ context.Context, cfg *Config) (string, error) { return f(cfg) }
	}
	fig4 := figs(func(cfg *Config) ([]Figure, error) { return Fig4(cfg, 24, 12) })
	onlineFigs := figs(func(cfg *Config) ([]Figure, error) { return Online(cfg, 12) })
	faultFigs := func(ctx context.Context, cfg *Config) ([]Figure, error) { return FigFault(ctx, cfg, 8) }
	return []Experiment{
		{ID: "table1", Description: "Table 1: video statistics", Run: text(func(*Config) (string, error) { return Table1(), nil })},
		{ID: "fig4", Description: "Fig. 4: GPR demand prediction vs ground truth", Run: renderFigs(fig4), Figures: fig4},
		{ID: "fig5", Description: "Fig. 5: unlimited link capacities (Alg. 1 / greedy vs [3], [38])", Run: renderFigs(figs(Fig5)), Figures: figs(Fig5)},
		{ID: "fig6", Description: "Fig. 6: binary cache capacities (Alg. 2 vs [33], RNR, splittable)", Run: renderFigs(figs(Fig6)), Figures: figs(Fig6)},
		{ID: "fig7", Description: "Fig. 7: general case, varying cache capacity", Run: renderFigs(figs(Fig7)), Figures: figs(Fig7)},
		{ID: "fig8", Description: "Fig. 8: general case, varying link capacity", Run: renderFigs(figs(Fig8)), Figures: figs(Fig8)},
		{ID: "table2", Description: "Table 2: qualitative summary (chunk level, IC-IR)", Run: text(Table2)},
		{ID: "table3", Description: "Table 3: execution times, chunk level", Run: text(func(cfg *Config) (string, error) { return ExecTimes(cfg, false) })},
		{ID: "table4", Description: "Table 4: execution times, file level", Run: text(func(cfg *Config) (string, error) { return ExecTimes(cfg, true) })},
		{ID: "fig11", Description: "Fig. 11: varying #videos", Run: renderFigs(figs(Fig11)), Figures: figs(Fig11)},
		{ID: "fig12", Description: "Fig. 12: varying chunk size", Run: renderFigs(figs(Fig12)), Figures: figs(Fig12)},
		{ID: "fig13", Description: "Fig. 13: varying prediction error", Run: renderFigs(figs(Fig13)), Figures: figs(Fig13)},
		{ID: "fig15", Description: "Fig. 14-15: varying network topology", Run: renderFigs(figs(Fig15)), Figures: figs(Fig15)},
		{ID: "table5", Description: "Table 5: topologies and parameters (Appendix D.4)", Run: text(Table5)},
		{ID: "online", Description: "extension: hourly online operation with churn accounting", Run: renderFigs(onlineFigs), Figures: onlineFigs},
		{ID: "fault", Description: "extension: robustness under link/cache failures and demand surges", Run: renderFigs(faultFigs), Figures: faultFigs},
		{ID: "regimes", Description: "extension: FC-FR / IC-FR / IC-IR exact regime comparison", Run: text(Regimes)},
		{ID: "zipf", Description: "extension: synthetic Zipf demand sweep (conference version)", Run: renderFigs(figs(ZipfSweep)), Figures: figs(ZipfSweep)},
		{ID: "ablation", Description: "extension: ablations of implementation choices", Run: text(Ablation)},
		{ID: "arena", Description: "extension: baseline arena — every registered strategy ranked over topology x catalog x skew x faults", Run: arenaRun, Score: Arena, Check: arenaCheck},
		{ID: "scaling", Description: "extension: alternating optimizer scaling curve over stitched composite topologies", Run: scalingRun, Score: Scaling, Check: scalingCheck},
	}
}

// arenaCheck enforces the arena's dominance claims: the alternating
// optimizer is never strictly dominated on served fraction, and it beats
// the fixed-path Ioannidis-Yeh baseline on expected delay.
func arenaCheck(sc *Scorecard) error {
	if err := sc.NeverDominatedOnServed("alternating"); err != nil {
		return err
	}
	return sc.DelayDominates("alternating", "iy-fixedpath")
}

// arenaRun adapts the arena's scorecard to the plain Run signature (the
// full grid; -quick is a cmd/jcrsim affordance on the Score path).
func arenaRun(ctx context.Context, cfg *Config) (string, error) {
	sc, err := Arena(ctx, cfg, false)
	if err != nil {
		return "", err
	}
	return sc.Render(), nil
}

// IDs returns every registered experiment id, sorted. It is the single
// source behind -list, the unknown-id error, and the CLI usage text.
func IDs() []string {
	var ids []string
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (have: %s)", id, strings.Join(IDs(), ", "))
}
