# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test bench bench-json bench-compare perfbench race vet lint loc cover experiments examples soak clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-specific static analysis (float comparisons, RNG injection,
# library panics, dropped errors, magic tolerances, map-iteration-order
# leaks, wall-clock reachability, lock discipline, hot-path allocations);
# see README "Static analysis & invariants". `go vet` runs first, then
# the thirteen jcrlint analyzers. CI also emits `-sarif` for inline
# annotations.
lint: vet
	$(GO) run ./cmd/jcrlint ./...

# Net non-test Go lines outside perfbench/ (testdata included), the size
# metric ROADMAP.md tracks. One fixed command, so every change reports the
# number the same way (CI prints it in the check job).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.git/*' | xargs cat | wc -l

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable substrate micro-benchmarks (LP pivots/sec sparse vs
# dense, warm-vs-cold solver resolves, MMSFP wall time, serving-layer
# lookup/swap, experiment-harness times) for tracking the perf trajectory
# across PRs. Writes the scratch report bench-compare reads, never the
# committed baseline: pinning a new BENCH_prN.json is a deliberate copy of
# this file.
bench-json:
	$(GO) run ./cmd/benchjson -out /tmp/bench_head.json

# Perf gate: fail if the current tree regressed the LP or shortest-path
# micro-benchmarks by more than 15% against the committed previous-PR
# baseline (CI runs this, skippable with the `skip-bench` PR label).
bench-compare:
	$(GO) run ./cmd/benchjson -only lp_sparse_solve,lp_pivot_heavy_ft,dijkstra_tree,yen_k25,online_fault_reroute,serve_lookup,plan_swap,decide_alg1,decide_mindelay -repeat 3 -out /tmp/bench_head.json
	$(GO) run ./cmd/benchjson -compare \
		-names lp_sparse_solve_placement,lp_sparse_solve_mmsfp_sized,lp_pivot_heavy_ft,dijkstra_tree,yen_k25,online_fault_reroute,serve_lookup,plan_swap,decide_alg1,decide_mindelay \
		BENCH_pr10.json /tmp/bench_head.json

# End-to-end and per-layer benchmark (BENCHMARK.json, perfbench/): every
# workload once with end-to-end metrics (--trace 0) and once with per-layer
# metrics (--trace 1), each ending in one JSON result line.
perfbench:
	for w in drift serve paper; do \
		for t in 0 1; do \
			python3 perfbench/run.py --workload $$w --seed 1 --seconds 30 --trace $$t || exit 1; \
		done; \
	done

# Full suite under the race detector (also a CI job).
race:
	$(GO) test -race ./...

# Serving-layer soak gate (also a CI job): the control plane is killed
# halfway and every lookup of the run must still resolve.
soak:
	$(GO) run ./cmd/jcrserve -hours 12 -lookups 200000 -kill-cp 6 -soak
	$(GO) run ./cmd/jcrserve -hours 12 -lookups 200000 -corrupt-push 4 -corrupt-hours 3 -concurrent -soak

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/jcrsim -exp all -mc 3

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edgecaching
	$(GO) run ./examples/cdn
	$(GO) run ./examples/hetero
	$(GO) run ./examples/online

clean:
	$(GO) clean -testcache
