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
# the twelve jcrlint analyzers. CI also emits `-sarif` for inline
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

# Machine-readable row benchmarks (LP pivots/sec sparse vs dense, warm-vs-
# cold solver resolves, MMSFP wall time, shortest-path kernels, serving-
# layer lookup/swap, per-strategy Decide, experiment-harness times): one run
# of every Benchmark* function in cmd/benchjson's rows table, converted to
# the BENCH_*.json format. Writes a scratch report, never a committed one:
# pinning a new BENCH_prN.json is a deliberate copy.
bench-json:
	$(GO) test -run '^$$' -bench "$$($(GO) run ./cmd/benchjson -regex all)" -benchmem ./... > /tmp/bench_head.txt \
		|| { cat /tmp/bench_head.txt; exit 1; }
	$(GO) run ./cmd/benchjson < /tmp/bench_head.txt > /tmp/bench_head.json
	@echo wrote /tmp/bench_head.json

# Perf gate (CI runs it, skippable with the `skip-bench` PR label): the
# gated row benchmarks of the merge-base with main, checked out in a scratch
# git worktree, and of the working tree run 10 times each, alternating which
# side goes first. Fails when any gated name's median paired ratio
# (change/base) exceeds 1.15 or serve_lookup misses its floor; a name on
# one side only is skipped with a note.
bench-compare:
	@set -e; tmp=$$(mktemp -d); \
	base=$$(git merge-base HEAD main 2>/dev/null || git merge-base HEAD origin/main); \
	git worktree add --detach --quiet "$$tmp/base" "$$base"; \
	trap 'git worktree remove --force "$$tmp/base"; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/benchjson" ./cmd/benchjson; \
	pat=$$("$$tmp/benchjson" -regex gated); \
	echo "bench-compare: base $$base, 10 paired runs of -bench '$$pat'"; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		order="base head"; [ $$((i % 2)) -eq 0 ] && order="head base"; \
		for side in $$order; do \
			dir=.; [ $$side = base ] && dir="$$tmp/base"; \
			(cd "$$dir" && $(GO) test -run '^$$' -bench "$$pat" -benchmem -count 1 ./...) >> "$$tmp/$$side.txt"; \
		done; \
	done; \
	"$$tmp/benchjson" -compare "$$tmp/base.txt" "$$tmp/head.txt"

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
	$(GO) test -race -timeout 30m ./...

# Serving-layer soak gate (also a CI job): the control plane is killed
# halfway and every lookup of the run must still resolve.
soak:
	$(GO) run ./cmd/jcrserve -hours 12 -lookups 200000 -kill-cp 6 -soak
	$(GO) run ./cmd/jcrserve -hours 12 -lookups 200000 -corrupt-push 4 -corrupt-hours 3 -concurrent -soak

# Regenerate every table and figure of the paper (see EXPERIMENTS.md) and
# rewrite the archive results/all_experiments_mc3_seed1.txt in place. Its
# first line cites the command that produced the rest of the file; -out ""
# keeps jcrsim from writing per-figure CSVs next to it. About 2 minutes on
# 2 vCPUs.
experiments:
	{ echo '# go run ./cmd/jcrsim -exp all -mc 3 -out ""'; $(GO) run ./cmd/jcrsim -exp all -mc 3 -out ""; } > results/all_experiments.tmp
	mv results/all_experiments.tmp results/all_experiments_mc3_seed1.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/edgecaching
	$(GO) run ./examples/cdn
	$(GO) run ./examples/hetero
	$(GO) run ./examples/online

clean:
	$(GO) clean -testcache
