package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/capture.golden.json")

// TestConvertCapture converts a captured `go test -bench -benchmem -count 2`
// run over two packages (GOMAXPROCS suffixes, sub-benchmarks, a
// ReportMetric unit, a planted --- FAIL) and pins the report.
func TestConvertCapture(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "capture.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := convert(bytes.NewReader(in), &out, &errw); code != 1 {
		t.Errorf("exit %d, want 1: the capture misses rows", code)
	}
	golden := filepath.Join("testdata", "capture.golden.json")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("report differs from %s:\n%s", golden, out.String())
	}
	for _, msg := range []string{"decide_sp (BenchmarkDecide/sp) failed", "harness_fig5 (BenchmarkHarnessFig5) failed"} {
		if !strings.Contains(errw.String(), msg) {
			t.Errorf("stderr lacks %q:\n%s", msg, errw.String())
		}
	}
}

// TestConvertComplete: a run holding every row converts with exit 0, with
// and without the -GOMAXPROCS suffix (absent when it is 1).
func TestConvertComplete(t *testing.T) {
	var in strings.Builder
	for i, r := range rows {
		suffix := ""
		if i%2 == 0 {
			suffix = "-4"
		}
		in.WriteString(r.bench + suffix + "  10  100 ns/op  0 B/op  0 allocs/op\n")
	}
	var out, errw bytes.Buffer
	if code := convert(strings.NewReader(in.String()), &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if rep := parse(strings.NewReader(in.String())); len(rep.Benchmarks) != len(rows) || rep.Benchmarks[0].Name != rows[0].row {
		t.Errorf("rows not mapped:\n%s", out.String())
	}
}

// TestRowsUnique: every Go name and every row name appears once.
func TestRowsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, r := range rows {
		for _, n := range []string{r.bench, r.row} {
			if seen[n] {
				t.Errorf("%s listed twice", n)
			}
			seen[n] = true
		}
	}
}

// selects reports whether `go test -bench pat` runs the benchmark named
// bench ("Top" or "Top/sub"), following the testing package's matcher:
// alternatives split at unbracketed '|', levels at unbracketed '/', and a
// top-level benchmark matched by a two-level alternative runs only its subs.
func selects(pat, bench string) bool {
	name := strings.Split(bench, "/")
	for _, alt := range splitTop(pat, '|') {
		levels := splitTop(alt, '/')
		ok := len(name) >= len(levels)
		for i := 0; i < len(name) && i < len(levels) && ok; i++ {
			ok = regexp.MustCompile(levels[i]).MatchString(name[i])
		}
		if ok {
			return true
		}
	}
	return false
}

// splitTop splits s at each sep outside parentheses.
func splitTop(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case sep:
			if depth == 0 {
				out, start = append(out, s[start:i]), i+1
			}
		}
	}
	return append(out, s[start:])
}

// TestPattern: the gated pattern selects exactly the gated rows, the full
// one every row, and neither a non-row benchmark.
func TestPattern(t *testing.T) {
	for _, gated := range []bool{false, true} {
		pat := pattern(gated)
		for _, r := range rows {
			if got, want := selects(pat, r.bench), r.gated || !gated; got != want {
				t.Errorf("gated=%v: %s selected %v, want %v", gated, r.bench, got, want)
			}
		}
		for _, other := range []string{"BenchmarkDecide", "BenchmarkScalingCells", "BenchmarkDecide/exact", "BenchmarkServeLookupBurst", "BenchmarkKShortestPaths"} {
			if selects(pat, other) {
				t.Errorf("gated=%v: %s selected", gated, other)
			}
		}
	}
}

// runs builds a name -> runs map from ns/op series.
func runs(series map[string][]float64) map[string][]Result {
	out := map[string][]Result{}
	for name, ns := range series {
		for _, v := range ns {
			out[name] = append(out[name], Result{Name: name, NsPerOp: v})
		}
	}
	return out
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name       string
		base, head map[string][]float64
		allocs     int64
		bad        int
		want       string
	}{
		{name: "equal", base: map[string][]float64{"yen_k25": {100, 100, 100}},
			head: map[string][]float64{"yen_k25": {100, 100, 100}}, want: "1.00x over 3  ok"},
		{name: "1.15x passes", base: map[string][]float64{"yen_k25": {100, 200, 100}},
			head: map[string][]float64{"yen_k25": {115, 230, 115}}, want: "1.15x over 3  ok"},
		{name: "1.16x fails", base: map[string][]float64{"yen_k25": {100, 200, 100}},
			head: map[string][]float64{"yen_k25": {116, 232, 116}}, bad: 1, want: "1.16x over 3  REGRESSION"},
		// One slow outlier pair does not move the median.
		{name: "median of ratios", base: map[string][]float64{"yen_k25": {100, 100, 100, 100, 100}},
			head: map[string][]float64{"yen_k25": {101, 300, 99, 100, 102}}, want: "1.01x over 5  ok"},
		// Machine drift hits both sides of a pair: runs 1, 3 fast, 2, 4, 5
		// slow. Pairing in run order sees head at 2x in every slow pair;
		// pairing sorted values would match fast with fast and pass.
		{name: "paired in run order", base: map[string][]float64{"yen_k25": {200, 100, 200, 100, 100}},
			head: map[string][]float64{"yen_k25": {100, 200, 100, 200, 200}}, bad: 1, want: "2.00x over 5  REGRESSION"},
		{name: "base only", base: map[string][]float64{"yen_k25": {100}, "dijkstra_tree": {50}},
			head: map[string][]float64{"yen_k25": {100}}, want: "skipped: in one input only (base 1 runs, head 0)"},
		{name: "head only", base: map[string][]float64{"yen_k25": {100}},
			head: map[string][]float64{"yen_k25": {100}, "decide_alg1": {50}}, want: "skipped: in one input only (base 0 runs, head 1)"},
		{name: "serve floor met", base: map[string][]float64{serveLookup: {900}},
			head: map[string][]float64{serveLookup: {1000}}, want: "1.11x over 1  ok"},
		{name: "serve floor missed", base: map[string][]float64{serveLookup: {1000}},
			head: map[string][]float64{serveLookup: {1001}}, bad: 1, want: "999001 lookups/s, 0 allocs/op"},
		{name: "serve allocates", base: map[string][]float64{serveLookup: {40}},
			head: map[string][]float64{serveLookup: {40}}, allocs: 1, bad: 1, want: "FLOOR"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			head := runs(tc.head)
			for i := range head[serveLookup] {
				head[serveLookup][i].AllocsPerOp = tc.allocs
			}
			var out bytes.Buffer
			if bad := compare(&out, runs(tc.base), head); bad != tc.bad {
				t.Errorf("%d failed checks, want %d:\n%s", bad, tc.bad, out.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out.String())
			}
		})
	}
}

// TestLoadPairsTextRuns: load keeps repeated runs of a name in run order,
// and a capture compared with itself passes.
func TestLoadPairsTextRuns(t *testing.T) {
	runs, err := load(filepath.Join("testdata", "capture.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(runs[serveLookup]); got != 2 {
		t.Fatalf("%d serve_lookup runs, want 2", got)
	}
	if runs[serveLookup][0].NsPerOp <= runs[serveLookup][1].NsPerOp {
		t.Fatal("runs not kept in input order")
	}
	var out bytes.Buffer
	if bad := compare(&out, runs, runs); bad != 0 || !strings.Contains(out.String(), "plan_swap") {
		t.Errorf("a capture against itself failed %d checks:\n%s", bad, out.String())
	}
	if _, err := load(filepath.Join("testdata", "missing.txt")); err == nil {
		t.Error("missing file loaded without error")
	}
}
