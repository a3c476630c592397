package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden lints fixture packages and asserts the exact diagnostics.
// Each fixture contains violations, compliant counterparts, and (for the
// dataflow analyzers) a suppressed finding, so the goldens pin down what
// is flagged, what is not, and that directives need a reason but silence
// only diagnostics. The *xpkg cases load a producer and a consumer
// package together and pin cross-package fact propagation: the producer's
// finding is suppressed, yet the consumer is still flagged.
func TestGolden(t *testing.T) {
	cases := []struct {
		name     string
		analyzer string
		patterns []string // default: ./testdata/src/<name>
	}{
		{name: "floateq", analyzer: "float-eq"},
		{name: "globalrand", analyzer: "global-rand"},
		{name: "libpanic", analyzer: "lib-panic"},
		{name: "errdrop", analyzer: "err-drop"},
		{name: "tolliteral", analyzer: "tol-literal"},
		{name: "bgcontext", analyzer: "bg-context"},
		{name: "gostmt", analyzer: "go-stmt"},
		{name: "strategyctx", analyzer: "strategy-ctx"},
		{name: "maporder", analyzer: "map-order"},
		{name: "maporderxpkg", analyzer: "map-order",
			patterns: []string{"./testdata/src/maporderdep", "./testdata/src/maporderuse"}},
		{name: "wallclock", analyzer: "wall-clock"},
		{name: "wallclockxpkg", analyzer: "wall-clock",
			patterns: []string{"./testdata/src/wallclockdep", "./testdata/src/wallclockuse"}},
		{name: "lockdiscipline", analyzer: "lock-discipline"},
		{name: "hotalloc", analyzer: "hot-alloc"},
		{name: "cellindex", analyzer: "cell-index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			patterns := tc.patterns
			if patterns == nil {
				patterns = []string{"./testdata/src/" + tc.name}
			}
			got := lintFixture(t, patterns, tc.analyzer)
			goldenPath := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics mismatch for %s (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestGoldenNonEmpty guards against a silently broken loader: the fixtures
// deliberately contain violations.
func TestGoldenNonEmpty(t *testing.T) {
	for _, tc := range []struct{ fixture, analyzer string }{
		{"floateq", "float-eq"},
		{"maporder", "map-order"},
	} {
		if lintFixture(t, []string{"./testdata/src/" + tc.fixture}, tc.analyzer) == "" {
			t.Fatalf("%s fixture produced no diagnostics; loader or analyzer broken", tc.fixture)
		}
	}
}

func lintFixture(t *testing.T, patterns []string, analyzer string) string {
	t.Helper()
	pkgs, err := LoadPackages(patterns)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("patterns %v loaded no packages", patterns)
	}
	selected, err := Select([]string{analyzer}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, selected, Options{})
	Relativize(res.Diags)
	var b strings.Builder
	for _, d := range res.Diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRepoLintsClean is the CI gate in test form: the entire module must
// lint clean under the full analyzer suite, and every deliberate
// exception must carry a //jcrlint:allow directive with a reason.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := LoadPackages([]string{"jcr/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module walk broken", len(pkgs))
	}
	res := Run(pkgs, Registry(), Options{})
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}

// TestSolverAPILintsClean pins the incremental-solve surface: the
// warm-start Solver handle, the lputil helpers, and the layers that thread
// them must lint clean under every analyzer.
func TestSolverAPILintsClean(t *testing.T) {
	pkgs, err := LoadPackages([]string{
		"jcr/internal/lp",
		"jcr/internal/core/lputil",
		"jcr/internal/core",
		"jcr/internal/routing",
		"jcr/internal/online",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 5 {
		t.Fatalf("loaded %d packages, want 5", len(pkgs))
	}
	res := Run(pkgs, Registry(), Options{})
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}

// TestGoStmtExemptsPar pins the one allowed home for bare go statements:
// the worker pool itself must lint clean under go-stmt even though it
// spawns goroutines.
func TestGoStmtExemptsPar(t *testing.T) {
	pkgs, err := LoadPackages([]string{"jcr/internal/par"})
	if err != nil {
		t.Fatal(err)
	}
	selected, err := Select([]string{"go-stmt"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(pkgs, selected, Options{})
	for _, d := range res.Diags {
		t.Errorf("internal/par flagged by go-stmt: %s", d)
	}
}

// TestSelectUnknownAnalyzer pins the CLI error path for a typo'd name.
func TestSelectUnknownAnalyzer(t *testing.T) {
	if _, err := Select([]string{"no-such"}, nil); err == nil {
		t.Fatal("Select accepted an unknown analyzer name")
	}
	if _, err := Select(nil, []string{"no-such"}); err == nil {
		t.Fatal("Select accepted an unknown analyzer name in disable")
	}
}
