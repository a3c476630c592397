// Command jcrserve exercises the fault-tolerant serving layer end to end:
// a control plane recomputing joint caching-and-routing plans over a
// drifting workload pushes validated snapshots to a data plane while a
// load generator fires replica/path lookups at it — optionally
// concurrently — and chaos flags kill the control plane or corrupt its
// pushes mid-run. The run prints per-hour control-plane outcomes and final
// serving metrics.
//
// Usage:
//
//	jcrserve [-hours 12] [-lookups 100000] [-policy rnr|alternating|<strategy>]
//	jcrserve -kill-cp 6                 # control plane dies at hour 6
//	jcrserve -corrupt-push 4 -corrupt-hours 2
//	jcrserve -concurrent               # race load against live plan swaps
//	jcrserve -soak -kill-cp 6          # CI gate: exit 1 unless 100% of
//	                                   # lookups resolve under the outage
//
// -soak is the CI soak gate: the process fails unless every lookup of the
// whole run resolved (the package's core robustness invariant).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
	"jcr/internal/serve"
	"jcr/internal/strategy"
)

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes, and returns
// the process exit code.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jcrserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hours        = fs.Int("hours", 12, "control-plane cycles to run")
		lookups      = fs.Int("lookups", 100000, "lookups fired per hour")
		loadWorkers  = fs.Int("load-workers", 0, "load-generator workers (0 = GOMAXPROCS)")
		seed         = fs.Int64("seed", 1, "random seed for demand drift and load sampling")
		policyName   = fs.String("policy", "rnr", "replan strategy: rnr (greedy + nearest replica), alternating (warm-started pipeline), or any other registered strategy")
		killCP       = fs.Int("kill-cp", -1, "hour at which the control plane dies for the rest of the run (-1 = never)")
		corruptPush  = fs.Int("corrupt-push", -1, "first hour of the corrupted-push window (-1 = never)")
		corruptHours = fs.Int("corrupt-hours", 1, "length of the corrupted-push window")
		concurrent   = fs.Bool("concurrent", false, "run the control plane and load generators concurrently instead of hour-by-hour")
		soak         = fs.Bool("soak", false, "soak gate: exit 1 unless 100% of lookups resolve")
		timeout      = fs.Duration("decide-timeout", 0, "per-decision deadline (0 = none)")
		retries      = fs.Int("retries", 1, "decide retries per cycle")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *hours <= 0 || *lookups < 0 || *corruptHours <= 0 {
		fmt.Fprintln(stderr, "jcrserve: -hours and -corrupt-hours must be positive, -lookups non-negative")
		return 2
	}
	opts := strategy.Options{Seed: *seed}
	if *policyName == "alternating" {
		opts = strategy.Options{WarmStart: true, BestEffort: true, Rng: rand.New(rand.NewSource(*seed))}
	}
	st, err := strategy.New(*policyName, opts)
	if err != nil {
		fmt.Fprintln(stderr, "jcrserve:", err)
		return 2
	}

	spec0, inputs := buildWorkload(*hours, *seed)
	dp, err := serve.NewDataPlane(spec0.G, spec0.Pinned)
	if err != nil {
		fmt.Fprintln(stderr, "jcrserve:", err)
		return 1
	}
	var scenario *faults.Scenario
	if *killCP >= 0 {
		scenario = faults.Merge("chaos", scenario, faults.ControlPlaneOutage(*killCP, *hours-*killCP))
	}
	if *corruptPush >= 0 {
		scenario = faults.Merge("chaos", scenario, faults.CorruptedPush(*corruptPush, *corruptHours))
	}
	cp, err := serve.NewControlPlaneForStrategy(st, dp, serve.ControlPlaneOptions{
		DecideTimeout: *timeout,
		MaxRetries:    *retries,
		Backoff:       10 * time.Millisecond,
		Sleep:         sleepCtx,
		Validate:      true,
		Now:           func() int64 { return time.Now().UnixNano() },
		Scenario:      scenario,
		CorruptSeed:   *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, "jcrserve:", err)
		return 1
	}

	start := time.Now()
	var total serve.LoadStats
	var reports []serve.StepReport
	if *concurrent {
		grp, _ := par.NewGroup(ctx)
		grp.Go(func(gctx context.Context) error {
			var rerr error
			reports, rerr = cp.Run(gctx, inputs)
			return rerr
		})
		grp.Go(func(gctx context.Context) error {
			st, lerr := serve.RunLoad(gctx, dp, spec0, *hours**lookups, *loadWorkers, *seed)
			total = st
			return lerr
		})
		if err := grp.Wait(); err != nil {
			fmt.Fprintln(stderr, "jcrserve:", err)
			return 1
		}
		for _, rep := range reports {
			printStep(stdout, rep)
		}
	} else {
		for h, in := range inputs {
			rep, err := cp.Step(ctx, in)
			if err != nil {
				fmt.Fprintln(stderr, "jcrserve:", err)
				return 1
			}
			reports = append(reports, rep)
			printStep(stdout, rep)
			st, err := serve.RunLoad(ctx, dp, in.Spec, *lookups, *loadWorkers, *seed+int64(h))
			if err != nil {
				fmt.Fprintln(stderr, "jcrserve:", err)
				return 1
			}
			total.Add(st)
		}
	}
	elapsed := time.Since(start)

	m := dp.Snapshot(time.Now().UnixNano())
	fmt.Fprintf(stdout, "lookups %d: plan %d (%.1f%%), failsafe %d, unresolved %d; resolved %.4f%%\n",
		total.Lookups, total.Plan, pct(total.Plan, total.Lookups), total.Failsafe, total.Unresolved,
		100*total.ResolvedFraction())
	fmt.Fprintf(stdout, "plan: epoch %d, age %s, swaps %d, rejected pushes %d, fallback fraction %.4f\n",
		m.PlanEpoch, time.Duration(m.PlanAgeNanos), m.Swaps, m.RejectedPushes, m.FallbackFraction())
	if total.Lookups > 0 && elapsed > 0 {
		fmt.Fprintf(stdout, "throughput: %.2fM lookups/sec over %s\n",
			float64(total.Lookups)/elapsed.Seconds()/1e6, elapsed.Round(time.Millisecond))
	}
	if *soak {
		if total.Unresolved != 0 || total.Lookups == 0 {
			fmt.Fprintf(stderr, "jcrserve: SOAK FAIL: %d of %d lookups unresolved\n", total.Unresolved, total.Lookups)
			return 1
		}
		fmt.Fprintln(stdout, "SOAK PASS: 100% of lookups resolved")
	}
	return 0
}

// buildWorkload makes the demo topology — a 12-node two-tier mesh with one
// origin — and hour-by-hour demand that drifts with the seed.
func buildWorkload(hours int, seed int64) (*placement.Spec, []serve.PlanInput) {
	const n, items = 12, 8
	g := graph.New(n)
	r := rng.New(seed)
	for v := 1; v < n; v++ {
		g.AddEdge(v, (v-1)/2, float64(2+r.Intn(8)), 1000) // binary-tree trunk
	}
	for k := 0; k < n; k++ {
		u, v := 1+r.Intn(n-1), 1+r.Intn(n-1)
		if u != v {
			g.AddEdge(u, v, float64(2+r.Intn(8)), 1000) // cross links
		}
	}
	dist := graph.AllPairs(g)
	mk := func(h int) *placement.Spec {
		hr := rng.Derive(seed, int64(h))
		cap := make([]float64, n)
		rates := make([][]float64, items)
		for i := range rates {
			rates[i] = make([]float64, n)
		}
		for v := 1; v < n; v++ {
			cap[v] = float64(1 + v%2)
			for i := 0; i < items; i++ {
				if (v+i+h)%3 != 0 {
					rates[i][v] = 1 + 9*hr.Float64()
				}
			}
		}
		return &placement.Spec{G: g, NumItems: items, CacheCap: cap, Pinned: []graph.NodeID{0}, Rates: rates}
	}
	inputs := make([]serve.PlanInput, hours)
	for h := range inputs {
		inputs[h] = serve.PlanInput{Hour: h, Spec: mk(h), Dist: dist}
	}
	return mk(0), inputs
}

func printStep(w io.Writer, rep serve.StepReport) {
	switch rep.Outcome {
	case serve.StepPushed:
		fmt.Fprintf(w, "hour %2d: pushed epoch %d (retries %d)\n", rep.Hour, rep.Epoch, rep.Retries)
	case serve.StepSkipped:
		fmt.Fprintf(w, "hour %2d: control plane down, push skipped\n", rep.Hour)
	default:
		fmt.Fprintf(w, "hour %2d: %s: %v\n", rep.Hour, rep.Outcome, rep.Err)
	}
}

// sleepCtx is the timer-backed Sleep the library options inject.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	if ctx == nil {
		<-t.C
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
