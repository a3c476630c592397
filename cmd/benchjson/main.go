// Command benchjson converts `go test -bench` output into the BENCH_*.json
// report format under the row names of its rows table, and compares two sets
// of runs of the row benchmarks (the perf gate):
//
//	go test -run '^$' -bench "$(benchjson -regex all)" -benchmem ./... | benchjson > report.json
//	benchjson -compare base.txt head.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	// Compare mode fails above a 15% ns/op rise, loose enough for shared
	// runners, and when a serve_lookup run in head misses the serving floor.
	regressionThreshold = 0.15
	serveLookup         = "serve_lookup"
	minLookupsPerSec    = 1e6 // with 0 allocs/op
)

// rows maps each row benchmark, by its Go name without the -GOMAXPROCS
// suffix, to its report row. Gated rows are the ones the perf gate runs.
var rows = []struct {
	bench, row string
	gated      bool
}{
	{"BenchmarkLPSparsePlacement", "lp_sparse_solve_placement", true},
	{"BenchmarkLPSparseMMSFPSized", "lp_sparse_solve_mmsfp_sized", true},
	{"BenchmarkLPDensePlacement", "lp_dense_solve_placement", false},
	{"BenchmarkLPDenseMMSFPSized", "lp_dense_solve_mmsfp_sized", false},
	{"BenchmarkSolverWarmPerturb", "lp_solver_warm_perturb", false},
	{"BenchmarkSolverColdPerturb", "lp_solver_cold_perturb", false},
	{"BenchmarkLPPivotHeavyFT", "lp_pivot_heavy_ft", true},
	{"BenchmarkAlternatingSequenceWarm", "alternating_sequence_warm", true},
	{"BenchmarkAlternatingSequenceCold", "alternating_sequence_cold", false},
	{"BenchmarkMSUFPAlg2", "msufp_alg2_k1000", false},
	{"BenchmarkRouteSequential", "route_sequential", true},
	{"BenchmarkPartialFlow", "check_partial_flow", true},
	{"BenchmarkCompile", "serve_compile", true},
	{"BenchmarkDijkstra", "dijkstra_tree", true},
	{"BenchmarkDijkstraReference", "dijkstra_tree_ref", false},
	{"BenchmarkYenK25", "yen_k25", true},
	{"BenchmarkFaultReroute", "online_fault_reroute", true},
	{"BenchmarkFaultRerouteCold", "online_fault_reroute_cold", false},
	{"BenchmarkServeLookup", serveLookup, true},
	{"BenchmarkPlanSwap", "plan_swap", true},
	{"BenchmarkHarnessTable2", "harness_table2", false},
	{"BenchmarkHarnessFig5", "harness_fig5", false},
	{"BenchmarkHarnessFig6", "harness_fig6", false},
	{"BenchmarkDecide/alg1", "decide_alg1", true},
	{"BenchmarkDecide/alg2", "decide_alg2", false},
	{"BenchmarkDecide/alternating", "decide_alternating", true},
	{"BenchmarkDecide/cachenet-random", "decide_cachenet_random", false},
	{"BenchmarkDecide/iy-fixedpath", "decide_iy_fixedpath", false},
	{"BenchmarkDecide/ksp", "decide_ksp", true},
	{"BenchmarkDecide/mindelay", "decide_mindelay", true},
	{"BenchmarkDecide/rnr", "decide_rnr", true},
	{"BenchmarkDecide/sp", "decide_sp", false},
	{"BenchmarkScalingCells/x4_c16", "scaling_cells_x4_c16", false},
	{"BenchmarkScalingCells/x16_c16", "scaling_cells_x16_c16", false},
	{"BenchmarkScalingCells/x16_c48", "scaling_cells_x16_c48", false},
	{"BenchmarkArenaQuick", "arena_quick", false},
}

// Result is one row of a report; Metrics carries every b.ReportMetric unit.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the whole JSON document.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	compareMode := flag.Bool("compare", false, "compare two `go test -bench` outputs, base then head")
	regex := flag.String("regex", "", "print the -bench pattern selecting the row benchmarks: all or gated")
	flag.Parse()
	switch {
	case *regex == "all" || *regex == "gated":
		fmt.Println(pattern(*regex == "gated"))
	case *regex != "" || *compareMode && flag.NArg() != 2:
		fmt.Fprintln(os.Stderr, "benchjson: want -regex all|gated, or -compare base head")
		os.Exit(2)
	case *compareMode:
		base, err := load(flag.Arg(0))
		head, err2 := load(flag.Arg(1))
		if err = errors.Join(err, err2); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		os.Exit(min(compare(os.Stdout, base, head), 1))
	default:
		os.Exit(convert(os.Stdin, os.Stdout, os.Stderr))
	}
}

// pattern is the -bench expression selecting the row benchmarks, or the gated
// ones; a two-level alternative would run only the subs of a top-level one.
func pattern(gatedOnly bool) string {
	var tops, parents []string
	subs := map[string][]string{}
	for _, r := range rows {
		top, sub, isSub := strings.Cut(r.bench, "/")
		switch {
		case gatedOnly && !r.gated:
		case !isSub:
			tops = append(tops, top)
		case subs[top] == nil:
			parents = append(parents, top)
			fallthrough
		default:
			subs[top] = append(subs[top], sub)
		}
	}
	p := "^(" + strings.Join(tops, "|") + ")$"
	for _, t := range parents {
		p += "|^" + t + "$/^(" + strings.Join(subs[t], "|") + ")$"
	}
	return p
}

// rowName strips the -GOMAXPROCS suffix `go test` appends and maps a Go
// benchmark name to its row; a benchmark outside the table keeps its name.
func rowName(bench string) string {
	if t := strings.TrimRight(bench, "0123456789"); t != bench && strings.HasSuffix(t, "-") {
		bench = t[:len(t)-1]
	}
	for _, r := range rows {
		if r.bench == bench {
			return r.row
		}
	}
	return bench
}

// parse reads `go test -bench` text into a report, one row per result line in
// input order; a failed benchmark prints none, so its row goes missing.
func parse(in io.Reader) (rep Report) {
	for sc := bufio.NewScanner(in); sc.Scan(); {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || f[3] != "ns/op" {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		res := Result{Name: rowName(f[0]), Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(f) && err == nil; i += 2 {
			var v float64
			v, err = strconv.ParseFloat(f[i], 64)
			switch f[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			default:
				res.Metrics[f[i+1]] = v
			}
		}
		if err == nil {
			rep.Benchmarks = append(rep.Benchmarks, res)
		}
	}
	return rep
}

// convert writes in's report to out and returns 1 if a row is missing.
func convert(in io.Reader, out, errw io.Writer) int {
	rep := parse(in)
	buf, _ := json.MarshalIndent(rep, "", "  ") // plain structs: cannot fail
	out.Write(append(buf, '\n'))
	have := map[string]bool{}
	for _, r := range rep.Benchmarks {
		have[r.Name] = true
	}
	code := 0
	for _, r := range rows {
		if !have[r.row] {
			fmt.Fprintf(errw, "benchjson: row %s (%s) failed or is missing from the input\n", r.row, r.bench)
			code = 1
		}
	}
	return code
}

// load reads `go test -bench` text as row name -> runs, in run order.
func load(path string) (map[string][]Result, error) {
	buf, err := os.ReadFile(path)
	by := map[string][]Result{}
	for _, r := range parse(bytes.NewReader(buf)).Benchmarks {
		by[r.Name] = append(by[r.Name], r)
	}
	return by, err
}

// compare prints one line per row present in either input and returns how
// many checks failed. The i-th base run pairs with the i-th head run, so
// machine drift that hits both runs of a pair cancels out.
func compare(out io.Writer, base, head map[string][]Result) int {
	bad := 0
	for _, r := range rows {
		n, b, h := r.row, base[r.row], head[r.row]
		if b == nil || h == nil {
			if b != nil || h != nil {
				fmt.Fprintf(out, "%-28s skipped: in one input only (base %d runs, head %d)\n", n, len(b), len(h))
			}
			continue
		}
		var ratios, bns, hns []float64
		for i := 0; i < len(b) && i < len(h); i++ {
			bns, hns = append(bns, b[i].NsPerOp), append(hns, h[i].NsPerOp)
			ratios = append(ratios, h[i].NsPerOp/b[i].NsPerOp)
		}
		verdict := "ok"
		if median(ratios) > 1+regressionThreshold {
			verdict, bad = "REGRESSION", bad+1
		}
		fmt.Fprintf(out, "%-28s %14.0f -> %14.0f ns/op  paired median %5.2fx over %d  %s\n",
			n, median(bns), median(hns), median(ratios), len(ratios), verdict)
	}
	for i, h := range head[serveLookup] {
		if lps := 1e9 / h.NsPerOp; lps < minLookupsPerSec || h.AllocsPerOp != 0 {
			fmt.Fprintf(out, "%s head run %d: %.0f lookups/s, %d allocs/op; floor %.0f, 0 allocs  FLOOR\n",
				serveLookup, i+1, lps, h.AllocsPerOp, minLookupsPerSec)
			bad++
		}
	}
	return bad
}

// median sorts xs in place and returns its middle (mean of the middle two).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
}
