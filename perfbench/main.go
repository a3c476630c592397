// Command perfbench is the repository's end-to-end and per-layer
// benchmark. Every workload drives the cycle an operator of the system
// runs each hour: a control plane (serve.ControlPlane.Step, configured as
// cmd/jcrserve configures it) decides a joint caching-and-routing plan,
// checks it, compiles it and swaps it into the serving data plane, which
// answers replica/path lookups from it. Inputs are generated from -seed;
// the cycle runs for -seconds, and on until every input was replanned
// minRepeats times; every plan and a sample of lookups are checked; one
// JSON object is printed as the last line of standard output.
//
// Usage, from the repository root (run.py builds this module first):
//
//	python3 perfbench/run.py --workload drift --seed 1 --seconds 10 --trace 0
//
// Workloads: drift (warm replanning over the trace's hourly demand), serve
// (lookups racing live plan swaps), paper (cold solves of the paper's
// evaluation points). With -trace 0 the result holds the
// end-to-end metrics, timing Step as a whole; with -trace 1 the benchmark
// makes Step's calls one by one and reports per-layer metrics.
//
// Every timing reads the timing thread's CPU clock (see threadCPU). A
// replan timing is, per input, the fastest of its repeats (see bestOf);
// the lookup figures are the mean over every burst's timing and the
// median over one-second windows of each window's 99th percentile (see
// samples); setup_s is the median of setupReps builds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jcr/internal/check"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/serve"
	"jcr/internal/strategy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// counts states the sample counts behind the timings.
	counts string
}

// overtime bounds how far past its window a run may go to time every
// input minRepeats times before it gives up.
const overtime = 60 * time.Second

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "measured wall time")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	build, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(build, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, res.counts)
	fmt.Fprintln(stdout, string(buf))
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// measure builds the fixture setupReps times (the set-up cost is their
// median), then runs the cycle for the measured window.
func measure(build func(int64) (*fixture, error), seed int64, window time.Duration, trace bool) (*result, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var fx *fixture
	setups := make([]float64, setupReps)
	for k := range setups {
		t0 := threadCPU()
		f, err := build(seed)
		if err == nil {
			err = f.start(trace)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[k] = (threadCPU() - t0).Seconds()
		fx = f
	}

	rec := newRecorder(trace, len(fx.hours))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var err error
	if fx.concurrent {
		err = fx.runConcurrent(rec, window)
	} else {
		err = fx.runSequential(rec, window)
	}
	runtime.ReadMemStats(&after)
	if rec.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", rec.firstErr)
	}
	if err != nil {
		return nil, err
	}

	res := &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
		counts: fmt.Sprintf("samples: %d replans of %d inputs (each timed at least %d times), %d lookup bursts of %d in %d one-second windows, %d set-ups",
			rec.numReplans, rec.replans.timed(), minRepeats, len(rec.bursts.ns), burstLen, len(rec.bursts.starts), setupReps),
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !trace {
		put("replan_ms", "ms", rec.replans.mean()/1e6)
		put("replan_p75_ms", "ms", rec.replans.quantile(0.75)/1e6)
		put("lookup_ns", "ns", rec.bursts.mean()/burstLen)
		put("burst_p99_us", "us", rec.bursts.windowQuantile(0.99)/1e3)
		put("setup_s", "s", medianSeconds(setups))
		return res, nil
	}
	replans := float64(rec.numReplans)
	put("replans", "count", replans)
	put("decide_ms", "ms", rec.spans[layerDecide].quantile(0.5)/1e6)
	put("check_ms", "ms", rec.spans[layerCheck].quantile(0.5)/1e6)
	put("compile_ms", "ms", rec.spans[layerCompile].quantile(0.5)/1e6)
	put("install_us", "us", rec.spans[layerInstall].quantile(0.5)/1e3)
	put("decide_rounds", "count", float64(rec.counts["rounds"])/replans)
	put("plan_routes", "count", float64(rec.counts["routes"])/replans)
	put("unserved_pct", "%", 100*float64(rec.counts["unserved_mass"])/float64(max(rec.counts["demand_mass"], 1)))
	put("lookup_plan_pct", "%", 100*float64(rec.counts["lookup_plan"])/float64(rec.numLookups))
	put("alloc_kb_per_replan", "KiB", float64(rec.counts["alloc_bytes"])/1024/replans)
	put("gc_per_replan", "count", float64(after.NumGC-before.NumGC)/replans)
	return res, nil
}

// start wires the control plane to the data plane and plans the first
// hour cold: the data plane serves from a real plan before measuring
// starts, as it would after an operator's first cycle. Part of set-up.
func (fx *fixture) start(trace bool) error {
	fx.book = newPlanBook()
	fx.rs = &recordingStrategy{}
	cp, err := serve.NewControlPlaneForStrategy(fx.rs, fx.dp, serve.ControlPlaneOptions{Validate: true})
	if err != nil {
		return err
	}
	fx.cp = cp
	rec := newRecorder(trace, len(fx.hours))
	fx.replan(rec, 0, 0)
	if rec.firstErr != nil {
		return rec.firstErr
	}
	fx.current.Store(0)
	return nil
}

// runSequential walks the horizon hour by hour — replan, then serve the
// hour's lookups — until the window has closed and every input has been
// replanned minRepeats times.
func (fx *fixture) runSequential(rec *recorder, window time.Duration) error {
	routes := make([]serve.Route, burstLen)
	start := time.Now()
	for k := 1; time.Since(start) < window || !rec.replans.covered(); k++ {
		if time.Since(start) > window+overtime {
			return fmt.Errorf("%d cycles in %s did not replan every hour %d times", k, window+overtime, minRepeats)
		}
		hi := k % len(fx.hours)
		h := fx.hours[hi]
		fx.replan(rec, k, hi)
		for b := 0; b < burstsPerHour; b++ {
			pos := b * burstLen % streamLen
			fx.burst(rec, h.stream[pos:pos+burstLen], routes)
		}
	}
	return nil
}

// runConcurrent replans in a control-plane goroutine while this goroutine
// serves lookups, until the window has closed and every input has been
// replanned minRepeats times; it returns once the control plane has
// stopped.
func (fx *fixture) runConcurrent(rec *recorder, window time.Duration) error {
	cpRec := newRecorder(rec.trace, len(fx.hours))
	var covered atomic.Bool
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		for k := 1; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			hi := k % len(fx.hours)
			fx.replan(cpRec, k, hi)
			fx.current.Store(int64(hi))
			if cpRec.replans.covered() {
				covered.Store(true)
			}
		}
	}()
	var err error
	routes := make([]serve.Route, burstLen)
	start := time.Now()
	for pos := 0; time.Since(start) < window || !covered.Load(); pos = (pos + burstLen) % streamLen {
		if time.Since(start) > window+overtime {
			err = fmt.Errorf("control plane did not replan every hour %d times in %s", minRepeats, window+overtime)
			break
		}
		hi := int(fx.current.Load())
		fx.burst(rec, fx.hours[hi].stream[pos:pos+burstLen], routes)
	}
	close(stop)
	wg.Wait()
	rec.merge(cpRec)
	return err
}

// replan runs one control-plane cycle on hour hi: as a whole through
// Step, or layer by layer when tracing.
func (fx *fixture) replan(rec *recorder, cycle, hi int) {
	if rec.trace {
		fx.replanLayers(rec, cycle, hi)
	} else {
		fx.step(rec, cycle, hi)
	}
}

// step runs one serve.ControlPlane.Step and records its latency. The
// plan it compiled is checked outside the timed region.
func (fx *fixture) step(rec *recorder, cycle, hi int) {
	h := fx.hours[hi]
	rec.attempted++
	fx.rs.use(fx.strategyFor(h))
	t0 := threadCPU()
	rep, err := fx.cp.Step(context.Background(), h.in)
	d := threadCPU() - t0
	if err != nil {
		rec.fail(fmt.Errorf("cycle %d: %w", cycle, err))
		return
	}
	if rep.Epoch != 0 {
		fx.book.add(rep.Epoch, h.in.Spec, fx.rs.plan.Placement)
	}
	if rep.Outcome != serve.StepPushed {
		rec.fail(fmt.Errorf("cycle %d (hour %d): %s: %v", cycle, h.in.Hour, rep.Outcome, rep.Err))
		return
	}
	if !fx.validate(rec, cycle, h, fx.rs.plan) {
		return
	}
	rec.numReplans++
	rec.replans.add(hi, d)
}

// replanLayers makes the calls Step makes — decide, check, compile,
// install — one by one, timing each and counting what they did. The
// benchmark's own work (booking the plan, reading allocation counters)
// stays outside the spans.
func (fx *fixture) replanLayers(rec *recorder, cycle, hi int) {
	h := fx.hours[hi]
	rec.attempted++
	st := fx.strategyFor(h)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := threadCPU()
	plan, stats, err := st.Decide(context.Background(), strategy.Instance{Spec: h.in.Spec, Dist: h.in.Dist})
	t1 := threadCPU()
	if err == nil {
		err = check.PartialFlow(h.in.Spec, plan.Placement, plan.Paths, plan.Unserved, true)
	}
	t2 := threadCPU()
	if err != nil {
		rec.fail(fmt.Errorf("cycle %d: decide: %w", cycle, err))
		return
	}
	epoch := fx.book.last() + 1
	compiled, err := serve.Compile(h.in.Spec, plan.Placement, plan.Paths, epoch, 0)
	t3 := threadCPU()
	if err != nil {
		rec.fail(fmt.Errorf("cycle %d: compile: %w", cycle, err))
		return
	}
	fx.book.add(epoch, h.in.Spec, plan.Placement)
	t3b := threadCPU()
	ierr := fx.dp.Install(compiled)
	t4 := threadCPU()
	runtime.ReadMemStats(&m1)
	if ierr != nil {
		rec.fail(fmt.Errorf("cycle %d: install: %w", cycle, ierr))
		return
	}
	if !fx.validate(rec, cycle, h, plan) {
		return
	}
	rec.numReplans++
	rec.replans.add(hi, t3-t0+t4-t3b)
	rec.layer(layerDecide, hi, t1-t0)
	rec.layer(layerCheck, hi, t2-t1)
	rec.layer(layerCompile, hi, t3-t2)
	rec.layer(layerInstall, hi, t4-t3b)
	rec.count("rounds", int64(stats.Iterations))
	rec.count("routes", int64(compiled.NumRoutes()))
	rec.count("alloc_bytes", int64(m1.TotalAlloc-m0.TotalAlloc))
	var total float64
	for _, row := range h.in.Spec.Rates {
		for _, x := range row {
			total += x
		}
	}
	// Masses in milli-requests keep the counters integral.
	rec.count("demand_mass", int64(1000*total))
	rec.count("unserved_mass", int64(1000*plan.UnservedMass()))
}

// validate checks a plan with strategy.Validate: Eq. (1) feasibility and
// predicted cost and congestion against recomputed ones.
func (fx *fixture) validate(rec *recorder, cycle int, h *hour, plan *strategy.Plan) bool {
	if err := strategy.Validate(strategy.Instance{Spec: h.in.Spec, Dist: h.in.Dist}, plan); err != nil {
		rec.fail(fmt.Errorf("cycle %d (hour %d): plan invalid: %w", cycle, h.in.Hour, err))
		return false
	}
	return true
}

// burst times one burst of lookups, then checks every checkEvery-th route
// outside the timed region.
func (fx *fixture) burst(rec *recorder, reqs []lookupReq, routes []serve.Route) {
	t0 := threadCPU()
	for k := range reqs {
		routes[k] = fx.dp.Lookup(reqs[k].item, reqs[k].node, reqs[k].pick)
	}
	rec.bursts.add(threadCPU() - t0)
	rec.attempted += int64(len(reqs))
	var fromPlan int64
	for k := range reqs {
		rt := &routes[k]
		if rt.Kind == serve.RoutePlan {
			fromPlan++
		}
		if k%checkEvery != 0 && rt.Resolved() {
			continue
		}
		if err := fx.checkRoute(reqs[k], rt); err != nil {
			rec.fail(err)
		}
	}
	if rec.trace {
		rec.count("lookup_plan", fromPlan)
	}
	rec.numLookups += int64(len(reqs))
}

// checkEvery is the lookup sampling rate of the route checks; unresolved
// lookups are always failures.
const checkEvery = 8

// routeCostTol is the relative slack between a route's reported cost and
// the sum of its arc costs.
const routeCostTol = 1e-9

// checkRoute verifies a lookup's answer independently of the data plane:
// a plan route must start at a node the plan stores the item at (or a
// pinned origin), follow arcs of the plan's own network hop by hop, end at
// the requester, and cost what its arcs cost; a fail-safe route must do
// the same from the origin over the deployment's network.
func (fx *fixture) checkRoute(q lookupReq, rt *serve.Route) error {
	var g *graph.Graph
	switch rt.Kind {
	case serve.RoutePlan:
		spec, stores := fx.book.get(rt.Epoch)
		if spec == nil {
			return fmt.Errorf("lookup (%d,%d): epoch %d is no longer booked", q.item, q.node, rt.Epoch)
		}
		if !spec.IsPinned(rt.Replica) && !stores[rt.Replica][q.item] {
			return fmt.Errorf("lookup (%d,%d): replica %d does not store the item in epoch %d", q.item, q.node, rt.Replica, rt.Epoch)
		}
		g = spec.G
	case serve.RouteFailsafe:
		if rt.Replica != fx.net.Origin {
			return fmt.Errorf("lookup (%d,%d): fail-safe replica %d is not the origin", q.item, q.node, rt.Replica)
		}
		g = fx.net.G
	default:
		return fmt.Errorf("lookup (%d,%d): unresolved", q.item, q.node)
	}
	at, cost := rt.Replica, 0.0
	for j := 0; j < rt.Hops(); j++ {
		a := g.Arc(rt.Arc(j))
		if a.From != at {
			return fmt.Errorf("lookup (%d,%d): route breaks at hop %d", q.item, q.node, j)
		}
		at, cost = a.To, cost+a.Cost
	}
	if at != q.node {
		return fmt.Errorf("lookup (%d,%d): route ends at %d", q.item, q.node, at)
	}
	if d := rt.Cost - cost; d > routeCostTol*(1+cost) || -d > routeCostTol*(1+cost) {
		return fmt.Errorf("lookup (%d,%d): route cost %g, arcs sum to %g", q.item, q.node, rt.Cost, cost)
	}
	return nil
}

// recordingStrategy is the strategy the control plane drives: it hands
// each Decide to the strategy the hour calls for and keeps the plan, so
// the benchmark can check what the control plane compiled.
type recordingStrategy struct {
	inner strategy.Strategy
	plan  *strategy.Plan
}

func (r *recordingStrategy) use(st strategy.Strategy) { r.inner, r.plan = st, nil }

func (r *recordingStrategy) Name() string { return r.inner.Name() }

func (r *recordingStrategy) Decide(ctx context.Context, inst strategy.Instance) (*strategy.Plan, strategy.Stats, error) {
	plan, stats, err := r.inner.Decide(ctx, inst)
	r.plan = plan
	return plan, stats, err
}

// planBook remembers what each compiled epoch was built from, so lookups
// answered by any recent plan can be checked against it. The control
// plane writes it and the lookup side reads it, possibly concurrently: a
// lookup may see a plan the moment it is installed, before the control
// plane has booked it, so get waits for the epoch. Every compiled epoch is
// booked right after the cycle that compiled it, so the wait is short.
type planBook struct {
	mu     sync.Mutex
	booked *sync.Cond
	epoch  uint64 // the latest booked
	plans  map[uint64]bookEntry
	oldest uint64
}

type bookEntry struct {
	spec   *placement.Spec
	stores [][]bool // the plan's Placement.Stores
}

// bookDepth bounds how many recent epochs stay checkable.
const bookDepth = 256

func newPlanBook() *planBook {
	b := &planBook{plans: map[uint64]bookEntry{}, oldest: 1}
	b.booked = sync.NewCond(&b.mu)
	return b
}

func (b *planBook) last() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// add records a deep copy of pl: a warm strategy may reuse its placement's
// storage for the next hour's plan, while lookups answered from this epoch
// still need this hour's.
func (b *planBook) add(epoch uint64, spec *placement.Spec, pl *placement.Placement) {
	stores := make([][]bool, len(pl.Stores))
	for v, row := range pl.Stores {
		stores[v] = append([]bool(nil), row...)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plans[epoch] = bookEntry{spec: spec, stores: stores}
	b.epoch = max(b.epoch, epoch)
	for ; b.oldest+bookDepth <= b.epoch; b.oldest++ {
		delete(b.plans, b.oldest)
	}
	b.booked.Broadcast()
}

// get returns what epoch was built from, waiting until it is booked; a
// nil spec means the epoch has aged out of the book.
func (b *planBook) get(epoch uint64) (*placement.Spec, [][]bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.epoch < epoch {
		b.booked.Wait()
	}
	e := b.plans[epoch]
	return e.spec, e.stores
}
