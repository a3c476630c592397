// Command jcrlint is the repository's custom static-analysis pass, built
// on the in-repo analysis framework in jcr/internal/lint (multichecker-
// style driver, per-package passes, cross-package facts, CFG dataflow).
// It enforces the numerical-correctness, reproducibility and concurrency
// invariants generic linters cannot know about (see README, "Static
// analysis & invariants"):
//
//	float-eq         no ==/!= between floating-point operands outside an
//	                 approximate-equality helper
//	global-rand      no math/rand global-source functions; library packages
//	                 must use an injected *rand.Rand or jcr/internal/rng
//	lib-panic        no panic in library packages except tagged
//	                 programmer-error guards
//	err-drop         no discarded error results from this module's functions
//	tol-literal      no inline scientific-notation tolerance literals; name
//	                 them as package-level constants
//	bg-context       no context.Background()/context.TODO() in library
//	                 packages; accept and thread the caller's ctx
//	go-stmt          no bare go statements outside jcr/internal/par; all
//	                 fan-out goes through the bounded worker pool
//	strategy-ctx     Strategy.Decide implementations thread their ctx into
//	                 every ctx-first module call (no nil, no fresh root)
//	map-order        map iteration order must not reach returned values,
//	                 appended slices, or emitted output (dataflow + facts)
//	wall-clock       no time.Now/time.Since/os.Getenv reachable from
//	                 library packages; clocks and config are injected
//	lock-discipline  no mutex held across lp/graph kernel calls or channel
//	                 ops (CFG lockset dataflow); no mixing sync/atomic
//	                 with plain access
//	hot-alloc        no allocations or interface boxing inside loops of
//	                 //jcr:hotpath functions
//
// Usage:
//
//	go run ./cmd/jcrlint [flags] [packages...]
//
// With no package arguments it analyzes ./internal/... and ./cmd/... .
// Only non-test Go files are analyzed: tests may legitimately use exact
// comparisons, ad-hoc RNGs and panics.
//
// Output modes (mutually exclusive; default is one text line per finding):
//
//	-json    machine-readable findings: a JSON array of
//	         {file, line, column, analyzer, message} objects (empty array
//	         when clean), for scripting and editor integration.
//	-sarif   a SARIF 2.1.0 log with one rule per analyzer, the format
//	         GitHub code scanning ingests for inline PR annotations (CI
//	         uploads this from the lint job).
//
// Diagnostics go to stdout; the exit status is 1 when there are findings,
// 2 on usage or load errors, 0 when clean. -timing reports each
// analyzer's accumulated wall time to stderr after the run (the library
// never reads the clock itself — this command injects time.Now, the same
// seam the wall-clock analyzer enforces everywhere else).
//
// A finding is suppressed by a directive comment on the same line or the
// line immediately above:
//
//	//jcrlint:allow <analyzer>[,<analyzer>...]: <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// Suppressing a map-order finding does not stop its fact from tainting
// callers: a helper that deliberately returns unsorted keys still forces
// its callers to sort.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"jcr/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("jcrlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		disable    = fs.String("disable", "", "comma-separated analyzers to skip")
		only       = fs.String("only", "", "comma-separated analyzers to run (default: all)")
		list       = fs.Bool("list", false, "list analyzers and exit")
		jsonOut    = fs.Bool("json", false, "emit findings as a JSON array")
		sarifOut   = fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
		timingFlag = fs.Bool("timing", false, "report per-analyzer wall time to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Registry() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "jcrlint: -json and -sarif are mutually exclusive")
		return 2
	}
	selected, err := lint.Select(splitNames(*only), splitNames(*disable))
	if err != nil {
		fmt.Fprintln(stderr, "jcrlint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	pkgs, err := lint.LoadPackages(patterns)
	if err != nil {
		fmt.Fprintln(stderr, "jcrlint:", err)
		return 2
	}
	res := lint.Run(pkgs, selected, lint.Options{Now: time.Now})
	lint.Relativize(res.Diags)
	switch {
	case *jsonOut:
		err = lint.WriteJSON(stdout, res.Diags)
	case *sarifOut:
		err = lint.WriteSARIF(stdout, res.Diags)
	default:
		err = lint.WriteText(stdout, res.Diags)
	}
	if err != nil {
		fmt.Fprintln(stderr, "jcrlint:", err)
		return 2
	}
	if *timingFlag {
		if err := lint.WriteTimings(stderr, res.Timings); err != nil {
			fmt.Fprintln(stderr, "jcrlint:", err)
			return 2
		}
	}
	if len(res.Diags) > 0 {
		fmt.Fprintf(stderr, "jcrlint: %d finding(s)\n", len(res.Diags))
		return 1
	}
	return 0
}

// splitNames parses a comma-separated analyzer list.
func splitNames(csv string) []string {
	if csv == "" {
		return nil
	}
	var out []string
	for _, name := range strings.Split(csv, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}
