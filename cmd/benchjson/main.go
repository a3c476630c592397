// Command benchjson runs the substrate micro-benchmarks (LP pivots/sec
// sparse vs dense, MMSFP wall time, experiment-harness wall times) via
// testing.Benchmark and writes them as machine-readable JSON, so the perf
// trajectory across PRs can be tracked without parsing `go test -bench`
// text output.
//
// Usage:
//
//	benchjson [-out BENCH_pr9.json] [-mc 1] [-only lp_solver,alternating]
//	benchjson -compare [-names lp_sparse_solve_placement,...] old.json new.json
//
// Compare mode reads two reports and exits non-zero when any compared
// benchmark's ns/op regressed by more than regressionThreshold, the CI
// perf gate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"jcr/internal/core"
	"jcr/internal/demand"
	"jcr/internal/experiments"
	"jcr/internal/graph"
	"jcr/internal/lp"
	"jcr/internal/msufp"
	"jcr/internal/placement"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// regressionThreshold is the relative ns/op increase above which compare
// mode fails: 15%, loose enough for shared-runner noise on the macro
// benchmarks the CI gate pins.
const regressionThreshold = 0.15

// Result is one benchmark row of the emitted JSON.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// PivotsPerSec is set for LP benchmarks only.
	PivotsPerSec float64 `json:"pivots_per_sec,omitempty"`
	// LPStats is the package-wide LP counter movement across the
	// benchmark's runs (pivot mix, bound flips, refactorizations, eta
	// density) — the pricing/update-discipline fingerprint that pairs with
	// the ns/op number. Set for LP benchmarks only.
	LPStats *lp.GlobalCounters `json:"lp_stats,omitempty"`
	// LookupsPerSec is set for the serving-layer lookup benchmark only;
	// the PR-7 acceptance gate pins it at >= 1M with zero allocs/op.
	LookupsPerSec float64 `json:"lookups_per_sec,omitempty"`
}

// Report is the whole JSON document.
type Report struct {
	Go         string   `json:"go"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output file ('-' = stdout)")
	mc := flag.Int("mc", 1, "Monte-Carlo runs for the experiment-harness timings")
	repeat := flag.Int("repeat", 1, "repetitions per micro-benchmark; the minimum ns/op is reported (damps machine noise for compare mode)")
	compare := flag.Bool("compare", false, "compare two report files (old new) and exit non-zero on regression")
	names := flag.String("names", "", "comma-separated benchmark names compare mode checks (default: all shared names)")
	only := flag.String("only", "", "comma-separated substrings; run only benchmarks whose name contains one")
	flag.Parse()
	if *compare {
		os.Exit(runCompare(flag.Args(), *names))
	}
	want := func(name string) bool {
		if *only == "" {
			return true
		}
		for _, tok := range strings.Split(*only, ",") {
			if tok != "" && strings.Contains(name, tok) {
				return true
			}
		}
		return false
	}
	// bench runs f through testing.Benchmark -repeat times and keeps the
	// fastest run: the minimum is the least-noise estimator on a shared
	// machine, which is what the regression gate wants to compare.
	bench := func(f func(*testing.B)) testing.BenchmarkResult {
		best := testing.Benchmark(f)
		for r := 1; r < *repeat; r++ {
			if res := testing.Benchmark(f); res.NsPerOp() < best.NsPerOp() {
				best = res
			}
		}
		return best
	}
	rep := Report{Go: fmt.Sprintf("%d maxprocs", maxProcs())}

	// LP micro-benchmarks: the placement-LP-shaped instance from
	// bench_test.go, solved by the sparse revised simplex and by the dense
	// tableau oracle. Pivots/sec is pivots-per-solve over seconds-per-solve.
	for _, b := range []struct {
		name  string
		solve func(*lp.Problem) (*lp.Solution, error)
	}{
		{"lp_sparse_solve", func(p *lp.Problem) (*lp.Solution, error) { return p.Solve() }},
		{"lp_dense_solve", func(p *lp.Problem) (*lp.Solution, error) { return p.SolveDense(context.Background()) }},
	} {
		for _, in := range []struct {
			tag   string
			build func() *lp.Problem
		}{
			{"placement", placementLP},
			{"mmsfp_sized", mmsfpSizedLP},
		} {
			if !want(b.name + "_" + in.tag) {
				continue
			}
			solve, build := b.solve, in.build
			var pivots int
			mark := lp.GlobalStats()
			res := bench(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					sol, err := solve(build())
					if err != nil {
						tb.Fatal(err)
					}
					pivots = sol.Pivots
				}
			})
			row := toResult(b.name+"_"+in.tag, res)
			if res.NsPerOp() > 0 {
				row.PivotsPerSec = float64(pivots) / (float64(res.NsPerOp()) / 1e9)
			}
			row.LPStats = lpDelta(mark)
			rep.Benchmarks = append(rep.Benchmarks, row)
		}
	}

	// Warm-vs-cold LP resolves: the mmsfp-shaped instance under a
	// perturbation sequence (RHS and objective moves), solved through a
	// reusable Solver handle versus one-shot. The pair is the LP-layer
	// speedup the incremental solve lifecycle buys.
	for _, b := range []struct {
		name string
		warm bool
	}{
		{"lp_solver_warm_perturb", true},
		{"lp_solver_cold_perturb", false},
	} {
		if !want(b.name) {
			continue
		}
		warm := b.warm
		mark := lp.GlobalStats()
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			p := mmsfpSizedLP()
			var solver *lp.Solver
			if warm {
				solver = lp.NewSolver()
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < tb.N; i++ {
				must(p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 5+rng.Float64()))
				p.SetObjectiveCoeff(rng.Intn(p.NumVars()), 1+rng.Float64())
				if _, err := solver.Solve(p); err != nil {
					tb.Fatal(err)
				}
			}
		})
		row := toResult(b.name, res)
		row.LPStats = lpDelta(mark)
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// RHS-only perturbation resolves: the retained basis stays dual feasible
	// while the basic values drift out of their boxes, so the warm handle
	// takes the dual-simplex rung instead of re-running phase 1 — the fault-
	// mask/demand-drift shape. The cold twin prices what the dual restart
	// saves end to end.
	for _, b := range []struct {
		name string
		warm bool
	}{
		{"lp_dual_warm_rhs", true},
		{"lp_dual_cold_rhs", false},
	} {
		if !want(b.name) {
			continue
		}
		warm := b.warm
		mark := lp.GlobalStats()
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			// Maximizing makes the capacity rows bind, so tightening an RHS
			// knocks basic structurals out of range — primal infeasible but
			// dual feasible, the dual rung's home turf (the minimizing twin
			// is optimal at zero and never leaves the retained basis).
			p := mmsfpSizedLP()
			p.SetSense(lp.Maximize)
			var solver *lp.Solver
			if warm {
				solver = lp.NewSolver()
			}
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < tb.N; i++ {
				must(p.SetConstraintRHS(rng.Intn(p.NumConstraints()), 2+4*rng.Float64()))
				if _, err := solver.Solve(p); err != nil {
					tb.Fatal(err)
				}
			}
		})
		row := toResult(b.name, res)
		row.LPStats = lpDelta(mark)
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// Pivot-heavy cold solve: a transportation-shaped instance whose
	// equality rows force a long phase 1, so the product-form update and
	// stability/work-triggered refactorization discipline dominates the
	// profile — the Forrest-Tomlin-style kernel benchmark.
	if want("lp_pivot_heavy_ft") {
		mark := lp.GlobalStats()
		var pivots int
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				sol, err := transportLP().Solve()
				if err != nil {
					tb.Fatal(err)
				}
				pivots = sol.Pivots
			}
		})
		row := toResult("lp_pivot_heavy_ft", res)
		if res.NsPerOp() > 0 {
			row.PivotsPerSec = float64(pivots) / (float64(res.NsPerOp()) / 1e9)
		}
		row.LPStats = lpDelta(mark)
		rep.Benchmarks = append(rep.Benchmarks, row)
	}

	// End-to-end alternating optimization over an hourly demand drift, with
	// and without carried solver state (warm-started per-path LPs, routing
	// caches) — the PR-4 acceptance benchmark.
	for _, b := range []struct {
		name string
		warm bool
	}{
		{"alternating_sequence_warm", true},
		{"alternating_sequence_cold", false},
	} {
		if !want(b.name) {
			continue
		}
		warm := b.warm
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := alternatingSequence(warm); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult(b.name, res))
	}

	// MMSFP wall time: Algorithm 2 at K=1000 on the Fig. 6 instance scale.
	if want("msufp_alg2_k1000") {
		inst := msufpInstance()
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if _, err := msufp.SolveAlg2(inst, 1000); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult("msufp_alg2_k1000", res))
	}

	// Shortest-path engine benchmarks (PR-5): the canonical CSR kernel and
	// the CSR-based Yen against the preserved pre-engine reference
	// implementations, and the fault-scenario online reroute with and
	// without cross-hour tree reuse. Each before/after pair lives in one
	// report so the speedup is read off a single file.
	for _, b := range []struct {
		name string
		run  func()
	}{
		{"dijkstra_tree", func() { graph.TreeOf(spTreeGraph, dijkstraSrc) }},
		{"dijkstra_tree_ref", func() { graph.ReferenceDijkstra(spTreeGraph, dijkstraSrc, nil, nil) }},
		{"yen_k25", func() { graph.KShortestPaths(spYenGraph, 0, spYenGraph.NumNodes()-1, 25) }},
		{"yen_k25_ref", func() { referenceYenK(spYenGraph, 0, spYenGraph.NumNodes()-1, 25) }},
	} {
		if !want(b.name) {
			continue
		}
		run := b.run
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				run()
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult(b.name, res))
	}

	// Fault-scenario online reroute: the controller walks a 24-hour faulty
	// horizon whose every request re-routes through nearest-replica trees;
	// warm carries the repair engine across hours, cold recomputes each
	// tree (Options.NoTreeReuse). Identical series either way, test-pinned.
	for _, b := range []struct {
		name string
		cold bool
	}{
		{"online_fault_reroute", false},
		{"online_fault_reroute_cold", true},
	} {
		if !want(b.name) {
			continue
		}
		cold := b.cold
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				if err := faultReroute(cold); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult(b.name, res))
	}

	// Serving-layer benchmarks (PR-7): the data plane's lock-free lookup hot
	// path (gated at >= 1M lookups/sec, zero allocs/op) and a full validated
	// plan swap (self-check plus atomic install), the latency a control-plane
	// push adds before new routes serve.
	if want("serve_lookup") {
		st := serveBench()
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			var sink graph.NodeID
			for i := 0; i < tb.N; i++ {
				k := i & (len(st.sample) - 1)
				rt := st.dp.Lookup(st.sample[k].Item, st.sample[k].Node, st.picks[k])
				sink += rt.Replica
			}
			_ = sink
		})
		row := toResult("serve_lookup", res)
		if res.NsPerOp() > 0 {
			row.LookupsPerSec = 1e9 / float64(res.NsPerOp())
		}
		if row.AllocsPerOp != 0 {
			fatal(fmt.Errorf("serve_lookup allocates %d/op; the read path must be allocation-free", row.AllocsPerOp))
		}
		if row.LookupsPerSec < 1e6 {
			fatal(fmt.Errorf("serve_lookup at %.0f lookups/sec, acceptance floor is 1M", row.LookupsPerSec))
		}
		rep.Benchmarks = append(rep.Benchmarks, row)
	}
	if want("plan_swap") {
		st := serveBench()
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			base := st.dp.Plan()
			for i := 0; i < tb.N; i++ {
				c := *base // plans are immutable; re-stamp a copy per swap
				c.Epoch = base.Epoch + uint64(i) + 1
				if err := st.dp.Install(&c); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult("plan_swap", res))
	}

	// Experiment-harness wall times: one timed pass per table/figure id
	// (benchmarks would re-run these many times; a single pass is what the
	// perf trajectory needs).
	cfg := experiments.DefaultConfig()
	cfg.Now = time.Now
	cfg.MonteCarloRuns = *mc
	for _, id := range []string{"table2", "fig5", "fig6"} {
		if !want("harness_" + id) {
			continue
		}
		e, err := experiments.Lookup(id)
		if err != nil {
			fatal(err)
		}
		start := time.Now()
		if _, err := e.Run(context.Background(), cfg); err != nil {
			fatal(fmt.Errorf("%s: %w", id, err))
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:       "harness_" + id,
			Iterations: 1,
			NsPerOp:    float64(time.Since(start).Nanoseconds()),
		})
	}

	// Per-strategy Decide wall times (PR-8): every registered strategy on
	// one arena-scale cell (the quick grid's clean Abovenet cell), the
	// per-plan latency the scorecard's wall-ms column tracks. Strategies
	// whose size gate rejects the cell (the brute-force exact solver) are
	// skipped, mirroring the arena.
	var decideSpec *placement.Spec
	var decideDist [][]float64
	for _, name := range strategy.Names() {
		bname := "decide_" + strings.ReplaceAll(name, "-", "_")
		if !want(bname) {
			continue
		}
		if decideSpec == nil {
			decideSpec = arenaDecideSpec()
			decideDist = graph.AllPairs(decideSpec.G)
		}
		inst := strategy.Instance{Spec: decideSpec, Dist: decideDist}
		opts := strategy.Options{Seed: 1, BestEffort: true, NoSolverReuse: true}
		if st := strategy.MustNew(name, opts); func() bool {
			sized, ok := st.(strategy.Sized)
			return ok && !sized.Fits(inst)
		}() {
			continue
		}
		res := bench(func(tb *testing.B) {
			tb.ReportAllocs()
			for i := 0; i < tb.N; i++ {
				st := strategy.MustNew(name, opts) // fresh: no warm-start carry-over
				if _, _, err := st.Decide(context.Background(), inst); err != nil {
					tb.Fatal(err)
				}
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, toResult(bname, res))
	}

	// Partition-pipeline scaling cells (PR-9): one timed decomposed solve
	// per representative composite cell — K cost-assigned Abovenet blocks
	// stitched through gateways, the scaling experiment's construction.
	// Single passes, like the harness timings: the big cells take seconds
	// and the curve, not the variance, is what the trajectory tracks.
	for _, b := range []struct {
		blocks, catalog int
	}{
		{4, 16},
		{16, 16},
		{16, 48},
	} {
		name := fmt.Sprintf("scaling_cells_x%d_c%d", b.blocks, b.catalog)
		if !want(name) {
			continue
		}
		spec, err := experiments.ScalingSpec(cfg, b.blocks, b.catalog)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		st := &strategy.Decomposed{
			Alternating: strategy.Alternating{Seed: 1, MaxIters: 4, BestEffort: true},
			MinVars:     1,
		}
		inst := strategy.Instance{Spec: spec, Dist: graph.AllPairs(spec.G)}
		start := time.Now()
		if _, _, err := st.Decide(context.Background(), inst); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:       name,
			Iterations: 1,
			NsPerOp:    float64(time.Since(start).Nanoseconds()),
		})
	}

	// Arena smoke wall time: one timed pass of the CI quick grid (every
	// strategy on a clean and a faulty cell), the end-to-end number the
	// scorecard pipeline costs.
	if want("arena_quick") {
		start := time.Now()
		if _, err := experiments.Arena(context.Background(), cfg, true); err != nil {
			fatal(fmt.Errorf("arena_quick: %w", err))
		}
		rep.Benchmarks = append(rep.Benchmarks, Result{
			Name:       "arena_quick",
			Iterations: 1,
			NsPerOp:    float64(time.Since(start).Nanoseconds()),
		})
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)
}

// runCompare implements -compare: it loads the two report files (old then
// new), lines their benchmarks up by name, prints an old/new/ratio table,
// and returns 1 when any compared benchmark's ns/op grew by more than
// regressionThreshold (2 on usage or read errors, 0 otherwise).
func runCompare(files []string, names string) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
		return 2
	}
	oldBy, err := loadReport(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	newBy, err := loadReport(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 2
	}
	var check []string
	if names != "" {
		for _, n := range strings.Split(names, ",") {
			if n != "" {
				check = append(check, n)
			}
		}
	} else {
		for n := range oldBy {
			if _, ok := newBy[n]; ok {
				check = append(check, n)
			}
		}
		sort.Strings(check)
	}
	if len(check) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no shared benchmarks to compare")
		return 2
	}
	regressions := 0
	for _, n := range check {
		o, okOld := oldBy[n]
		nw, okNew := newBy[n]
		if !okOld || !okNew || o.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %s missing from a report (old %v, new %v)\n", n, okOld, okNew)
			regressions++
			continue
		}
		ratio := nw.NsPerOp / o.NsPerOp
		verdict := "ok"
		if ratio > 1+regressionThreshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("%-32s %14.0f -> %14.0f ns/op  %5.2fx  %s\n", n, o.NsPerOp, nw.NsPerOp, ratio, verdict)
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed beyond %.0f%%\n", regressions, 100*regressionThreshold)
		return 1
	}
	return 0
}

// loadReport reads a report file into a name-indexed map.
func loadReport(path string) (map[string]Result, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	by := make(map[string]Result, len(rep.Benchmarks))
	for _, r := range rep.Benchmarks {
		by[r.Name] = r
	}
	return by, nil
}

func toResult(name string, res testing.BenchmarkResult) Result {
	return Result{
		Name:        name,
		Iterations:  res.N,
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// must aborts on constraint-construction errors: the benchmark instances
// are valid by construction, so any failure is a bug in this generator.
func must(err error) {
	if err != nil {
		fatal(err)
	}
}

// lpDelta returns the package-wide LP counter movement since mark, the
// metadata attached to LP benchmark rows.
func lpDelta(mark lp.GlobalCounters) *lp.GlobalCounters {
	now := lp.GlobalStats()
	return &lp.GlobalCounters{
		Solves:       now.Solves - mark.Solves,
		DualSolves:   now.DualSolves - mark.DualSolves,
		PrimalPivots: now.PrimalPivots - mark.PrimalPivots,
		DualPivots:   now.DualPivots - mark.DualPivots,
		BoundFlips:   now.BoundFlips - mark.BoundFlips,
		Refactors:    now.Refactors - mark.Refactors,
		EtaUpdates:   now.EtaUpdates - mark.EtaUpdates,
		EtaNNZ:       now.EtaNNZ - mark.EtaNNZ,
	}
}

// transportLP builds the pivot-heavy benchmark instance: a 20x30
// transportation problem whose supply rows are equalities, forcing a long
// artificial-driven phase 1 before phase 2 rebalances shipments.
func transportLP() *lp.Problem {
	rng := rand.New(rand.NewSource(11))
	const src, dst = 20, 30
	p := lp.NewProblem(src * dst)
	for s := 0; s < src; s++ {
		for d := 0; d < dst; d++ {
			j := s*dst + d
			p.SetBounds(j, 0, 40)
			p.SetObjectiveCoeff(j, 1+9*rng.Float64())
		}
	}
	for s := 0; s < src; s++ {
		idx := make([]int, dst)
		val := make([]float64, dst)
		for d := 0; d < dst; d++ {
			idx[d], val[d] = s*dst+d, 1
		}
		must(p.AddConstraint(idx, val, lp.EQ, 30))
	}
	for d := 0; d < dst; d++ {
		idx := make([]int, src)
		val := make([]float64, src)
		for s := 0; s < src; s++ {
			idx[s], val[s] = s*dst+d, 1
		}
		must(p.AddConstraint(idx, val, lp.GE, 20))
	}
	return p
}

func maxProcs() int {
	return runtime.GOMAXPROCS(0)
}

// placementLP builds the placement-LP-shaped instance used by
// BenchmarkSimplexLP: 120 request variables coupled to a 30x8 placement
// grid through sparse rows.
func placementLP() *lp.Problem {
	rng := rand.New(rand.NewSource(4))
	const items, nodes, reqs = 30, 8, 120
	p := lp.NewProblem(items*nodes + reqs)
	p.SetSense(lp.Maximize)
	for r := 0; r < reqs; r++ {
		y := items*nodes + r
		p.SetObjectiveCoeff(y, 1+rng.Float64())
		p.SetBounds(y, 0, 1)
		idx := []int{y}
		val := []float64{1}
		seen := map[int]bool{}
		for k := 0; k < 4; k++ {
			x := rng.Intn(items * nodes)
			if seen[x] {
				continue // the LP core rejects duplicate row indices
			}
			seen[x] = true
			idx = append(idx, x)
			val = append(val, -rng.Float64())
		}
		must(p.AddConstraint(idx, val, lp.LE, 0.1))
	}
	for v := 0; v < nodes; v++ {
		idx := make([]int, items)
		vals := make([]float64, items)
		for i := 0; i < items; i++ {
			idx[i], vals[i] = v*items+i, 1
			p.SetBounds(v*items+i, 0, 1)
		}
		must(p.AddConstraint(idx, vals, lp.LE, 5))
	}
	return p
}

// mmsfpSizedLP mirrors lp.MMSFPSizedLP from internal/lp/bench_test.go: the
// 1800-variable multicommodity-shaped LP where sparse rows dominate.
func mmsfpSizedLP() *lp.Problem {
	rng := rand.New(rand.NewSource(7))
	const nItems, nArcs = 12, 150
	n := nItems * nArcs
	p := lp.NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetBounds(j, 0, 10)
		p.SetObjectiveCoeff(j, 1+rng.Float64())
	}
	for i := 0; i < nItems; i++ {
		for r := 0; r < nArcs/4; r++ {
			idx := make([]int, 0, 6)
			val := make([]float64, 0, 6)
			seen := map[int]bool{}
			for k := 0; k < 6; k++ {
				a := rng.Intn(nArcs)
				if seen[a] {
					continue
				}
				seen[a] = true
				idx = append(idx, i*nArcs+a)
				if len(idx)%2 == 1 {
					val = append(val, 1)
				} else {
					val = append(val, -1)
				}
			}
			must(p.AddConstraint(idx, val, lp.LE, 5+rng.Float64()))
		}
	}
	for a := 0; a < nArcs; a++ {
		idx := make([]int, nItems)
		val := make([]float64, nItems)
		for i := 0; i < nItems; i++ {
			idx[i], val[i] = i*nArcs+a, 1
		}
		must(p.AddConstraint(idx, val, lp.LE, 30))
	}
	return p
}

// benchSequence is the hourly demand drift driven by alternatingSequence,
// built once: an Abovenet instance whose request magnitudes scale hour to
// hour while the network and the requesting pairs stay fixed — exactly the
// regime the incremental solve lifecycle targets.
var benchSequence []*placement.Spec

func benchSequenceSpecs() []*placement.Spec {
	if benchSequence != nil {
		return benchSequence
	}
	net := topo.Abovenet(1)
	rng := rand.New(rand.NewSource(5))
	net.AssignCosts(rng, 100, 200, 1, 20)
	net.SetUnlimitedCapacity()
	const items, hours = 24, 8
	base := make([][]float64, items)
	for i := range base {
		base[i] = make([]float64, net.G.NumNodes())
		for _, e := range net.Edges {
			// Zipf-flavored popularity over a fixed requester set.
			base[i][e] = 10 * rng.Float64() / float64(i+1)
		}
	}
	caps := make([]float64, net.G.NumNodes())
	for v := range caps {
		if v != int(net.Origin) {
			caps[v] = 3
		}
	}
	for h := 0; h < hours; h++ {
		scale := 1 + 0.1*float64(h)
		rates := make([][]float64, items)
		for i := range rates {
			rates[i] = make([]float64, len(base[i]))
			for v := range rates[i] {
				rates[i][v] = base[i][v] * scale
			}
		}
		// A fresh Spec per hour sharing one graph: mutated demand needs a
		// new Spec identity for the routing demand cache's pointer contract.
		benchSequence = append(benchSequence, &placement.Spec{
			G:        net.G,
			NumItems: items,
			CacheCap: append([]float64(nil), caps...),
			Pinned:   []graph.NodeID{net.Origin},
			Rates:    rates,
		})
	}
	return benchSequence
}

// alternatingSequence runs the alternating optimizer over the hourly drift,
// seeding each hour with the previous placement — with carried solver state
// (warm) or from scratch every hour (cold).
func alternatingSequence(warm bool) error {
	var state *core.SolveState
	if warm {
		state = core.NewSolveState()
	}
	var prev *placement.Placement
	for _, spec := range benchSequenceSpecs() {
		sol, err := core.Alternating(nil, spec, core.AlternatingOptions{
			Fractional: true,
			Initial:    prev,
			State:      state,
		})
		if err != nil {
			return err
		}
		prev = sol.Placement
	}
	return nil
}

// msufpInstance mirrors benchMSUFPInstance from bench_test.go: 486
// commodities on the Abovenet auxiliary graph.
func msufpInstance() *msufp.Instance {
	net := topo.Abovenet(1)
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
	if err := net.AugmentFeasibility(perEdge); err != nil {
		fatal(err)
	}
	for id := 0; id < net.G.NumArcs(); id++ {
		aux.G.SetArcCap(id, net.G.Arc(id).Cap)
	}
	return inst
}

// arenaDecideSpec builds the per-strategy Decide benchmark's instance:
// the arena quick grid's clean cell (Abovenet, 24-item catalog, Zipf 0.8
// demand spread over the edge nodes, uniform capacities augmented to
// feasibility, chunk-slot edge caches).
func arenaDecideSpec() *placement.Spec {
	const items = 24
	const totalRate = 10000.0
	net := topo.Abovenet(1)
	r := rand.New(rand.NewSource(3))
	net.AssignCosts(r, 100, 200, 1, 20)
	pop := demand.Zipf(items, 0.8)
	itemRates := make([]float64, items)
	for i := range itemRates {
		itemRates[i] = pop[i] * totalRate
	}
	perEdge := demand.SpreadToEdges(itemRates, len(net.Edges), r)
	rates := make([][]float64, items)
	edgeTotals := make([]float64, len(net.Edges))
	for i := range rates {
		rates[i] = make([]float64, net.G.NumNodes())
		for e, v := range net.Edges {
			rates[i][v] = perEdge[i][e]
			edgeTotals[e] += perEdge[i][e]
		}
	}
	net.SetUniformCapacity(0.02 * totalRate)
	if err := net.AugmentFeasibility(edgeTotals); err != nil {
		fatal(err)
	}
	cacheCap := make([]float64, net.G.NumNodes())
	for _, v := range net.Edges {
		cacheCap[v] = 12
	}
	return &placement.Spec{
		G:        net.G,
		NumItems: items,
		CacheCap: cacheCap,
		Pinned:   []graph.NodeID{net.Origin},
		Rates:    rates,
	}
}
