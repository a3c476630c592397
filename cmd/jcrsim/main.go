// Command jcrsim runs the paper-reproduction experiments: every table and
// figure of the evaluation (Section 6, Appendices C-D) by id, plus the
// robustness extension (-exp fault) that degrades the network with seeded
// link/cache failures while the online controller operates through them.
//
// Usage:
//
//	jcrsim -list
//	jcrsim -exp fig5 [-mc 10] [-hours 10,40,70] [-seed 1]
//	jcrsim -exp fault [-out results]
//	jcrsim -exp all [-workers 4] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Experiments with figure data are archived as CSV under -out (default
// results/); an empty -out disables archiving. -workers bounds the
// Monte-Carlo/solver worker pool (0 = GOMAXPROCS); output is bit-for-bit
// identical for any width. -cpuprofile/-memprofile write pprof profiles
// for `go tool pprof`.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"jcr/internal/experiments"
	"jcr/internal/lp"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jcrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list    = fs.Bool("list", false, "list available experiments")
		exp     = fs.String("exp", "", "experiment id to run, or 'all'")
		mc      = fs.Int("mc", 0, "Monte-Carlo runs per data point (0 = default)")
		hours   = fs.String("hours", "", "comma-separated evaluation hours within the 100-hour window")
		seed    = fs.Int64("seed", 0, "random seed (0 = default)")
		k       = fs.Int("k", 0, "candidate paths for the [3] baseline (0 = default)")
		csv     = fs.Bool("csv", false, "emit figure data as CSV instead of text tables")
		quick   = fs.Bool("quick", false, "run the CI smoke grid of scorecard experiments (-exp arena)")
		out     = fs.String("out", "results", "directory for CSV archives of figure data ('' = no archive)")
		workers = fs.Int("workers", 0, "worker-pool width for Monte-Carlo runs and solver fan-out (0 = GOMAXPROCS)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, "jcrsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "jcrsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
		// Print the process-wide LP solve counters next to the profile: a
		// pricing or update-discipline regression shows up as a pivot-mix
		// movement without opening the pprof file.
		defer func() {
			g := lp.GlobalStats()
			fmt.Fprintf(stdout, "lp counters: solves=%d primal_pivots=%d bound_flips=%d refactors=%d eta_updates=%d avg_eta_nnz=%.2f\n",
				g.Solves, g.PrimalPivots, g.BoundFlips, g.Refactors, g.EtaUpdates, g.AvgEtaNNZ())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(stderr, "jcrsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "jcrsim:", err)
			}
		}()
	}
	if err := runMain(ctx, stdout, *list, *exp, *mc, *hours, *seed, *k, *workers, *csv, *quick, *out); err != nil {
		fmt.Fprintln(stderr, "jcrsim:", err)
		return 1
	}
	return 0
}

func runMain(ctx context.Context, stdout io.Writer, list bool, exp string, mc int, hours string, seed int64, k, workers int, csv, quick bool, out string) error {
	if list || exp == "" {
		fmt.Fprintln(stdout, "available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Description)
		}
		if exp == "" && !list {
			return fmt.Errorf("pass -exp <id> or -list (ids: %s)", strings.Join(experiments.IDs(), ", "))
		}
		return nil
	}
	cfg := experiments.DefaultConfig()
	cfg.Now = time.Now // the binary owns the clock; the library only borrows it
	if mc > 0 {
		cfg.MonteCarloRuns = mc
	}
	if seed != 0 {
		cfg.Seed = seed
	}
	if k > 0 {
		cfg.CandidatePaths = k
	}
	cfg.Workers = workers
	if hours != "" {
		cfg.Hours = nil
		for _, part := range strings.Split(hours, ",") {
			h, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad -hours entry %q: %w", part, err)
			}
			cfg.Hours = append(cfg.Hours, h)
		}
	}
	if exp == "all" {
		type timing struct {
			id      string
			elapsed time.Duration
		}
		var timings []timing
		for _, e := range experiments.Registry() {
			start := time.Now()
			text, err := e.Run(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
			timings = append(timings, timing{e.ID, time.Since(start)})
			fmt.Fprintln(stdout, text)
		}
		fmt.Fprintln(stdout, "== experiment wall times ==")
		var total time.Duration
		for _, tm := range timings {
			fmt.Fprintf(stdout, "  %-8s %8.2fs\n", tm.id, tm.elapsed.Seconds())
			total += tm.elapsed
		}
		fmt.Fprintf(stdout, "  %-8s %8.2fs\n", "total", total.Seconds())
		return nil
	}
	e, err := experiments.Lookup(exp)
	if err != nil {
		return err
	}
	if e.Score != nil {
		return runScorecard(ctx, stdout, e, cfg, quick, out)
	}
	if e.Figures == nil {
		if csv {
			return fmt.Errorf("experiment %q has no figure data for CSV export", e.ID)
		}
		text, err := e.Run(ctx, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, text)
		return nil
	}
	// Figure experiments run once; the same data renders as text or CSV
	// and is archived under -out.
	figs, err := e.Figures(ctx, cfg)
	if err != nil {
		return err
	}
	for i := range figs {
		if csv {
			fmt.Fprintf(stdout, "# %s: %s\n%s\n", figs[i].ID, figs[i].Title, figs[i].CSV())
		} else {
			fmt.Fprintln(stdout, figs[i].Render())
		}
	}
	if out != "" {
		path, err := archiveCSV(out, e.ID, cfg, figs)
		if err != nil {
			return fmt.Errorf("archiving %s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "archived figure data to %s\n", path)
	}
	return nil
}

// runScorecard runs a scorecard experiment (the arena, the scaling
// sweep), prints the ranked table, archives it as CSV and JSON under
// -out, and enforces the experiment's headline claims through its Check
// hook (EXPERIMENTS.md states them per experiment).
func runScorecard(ctx context.Context, stdout io.Writer, e experiments.Experiment, cfg *experiments.Config, quick bool, out string) error {
	sc, err := e.Score(ctx, cfg, quick)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, sc.Render())
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		id := e.ID
		if quick {
			id += "_quick"
		}
		base := filepath.Join(out, fmt.Sprintf("%s_scorecard_seed%d", id, cfg.Seed))
		if err := os.WriteFile(base+".csv", []byte(sc.CSV()), 0o644); err != nil {
			return fmt.Errorf("archiving %s: %w", e.ID, err)
		}
		js, err := sc.JSON()
		if err != nil {
			return fmt.Errorf("marshaling %s scorecard: %w", e.ID, err)
		}
		if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
			return fmt.Errorf("archiving %s: %w", e.ID, err)
		}
		fmt.Fprintf(stdout, "archived scorecard to %s.{csv,json}\n", base)
	}
	if e.Check != nil {
		if err := e.Check(sc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "scorecard checks passed for %s\n", e.ID)
	}
	return nil
}

// archiveCSV writes the experiment's figure data to
// <dir>/<id>_mc<N>_seed<S>.csv and returns the path.
func archiveCSV(dir, id string, cfg *experiments.Config, figs []experiments.Figure) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_mc%d_seed%d.csv", id, cfg.MonteCarloRuns, cfg.Seed))
	var b strings.Builder
	for i := range figs {
		fmt.Fprintf(&b, "# %s: %s\n%s\n", figs[i].ID, figs[i].Title, figs[i].CSV())
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", err
	}
	return path, nil
}
