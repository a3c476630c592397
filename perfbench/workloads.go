package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"jcr/internal/experiments"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/serve"
	"jcr/internal/strategy"
	"jcr/internal/topo"
)

// Workload sizes. Every workload runs on the paper's evaluation scenario
// (experiments.NewScenario: the Abovenet stand-in with the synthetic
// YouTube trace); the seed is the Monte-Carlo request spread (paper: also
// the evaluation hours) and draws the lookup streams.
const (
	horizon     = 48    // consecutive collection hours of the hourly workloads
	streamLen   = 4096  // pre-sampled lookups per hour
	burstLen    = 256   // lookups per timed burst
	lookupsHour = 16384 // lookups served per hour in the sequential workloads
	setupReps   = 15    // fixture builds per run; setup_s is their median
	paperHours  = 4     // evaluation hours the paper workload samples
	paperMC     = 2     // Monte-Carlo request spreads per hour
	cpWorkers   = 1     // solver workers: one, so a replan runs on the thread timing it
	networkSeed = 1     // scenario seed: topology, link costs and trace

	burstsPerHour = lookupsHour / burstLen
)

// workloads are the benchmark's named input families.
var workloads = map[string]func(seed int64) (*fixture, error){
	"drift": driftFixture,
	"serve": serveFixture,
	"paper": paperFixture,
}

// lookupReq is one pre-sampled data-plane lookup.
type lookupReq struct {
	item int
	node graph.NodeID
	pick uint64
}

// hour is one control-plane cycle's input.
type hour struct {
	// in is what the control plane plans on: the decision spec and its
	// distances.
	in serve.PlanInput
	// stream is the hour's lookups, sampled from the realized demand.
	stream []lookupReq
	// newStrategy, when set, builds a cold strategy for this hour alone
	// (the paper points); otherwise the fixture's warm strategy plans.
	newStrategy func() strategy.Strategy
}

// fixture is a built workload: the data plane, the inputs, and the
// control plane's strategy.
type fixture struct {
	net   *topo.Network
	dp    *serve.DataPlane
	hours []*hour
	// warm plans every hour without its own newStrategy, carrying solver
	// state across hours the way the online controller does.
	warm strategy.Strategy
	// concurrent runs the control plane in its own goroutine, racing
	// lookups against live plan swaps; otherwise each hour replans and
	// then serves lookupsHour lookups.
	concurrent bool

	// rs and cp are the control plane, built by start.
	rs *recordingStrategy
	cp *serve.ControlPlane
	// book maps compiled epochs to their inputs for the lookup checks.
	book *planBook
	// current is the index of the hour whose demand the lookups follow;
	// the control plane advances it after each replan.
	current atomic.Int64
}

func (fx *fixture) strategyFor(h *hour) strategy.Strategy {
	if h.newStrategy != nil {
		return h.newStrategy()
	}
	return fx.warm
}

// scenario is the paper's evaluation scenario every workload runs on.
func scenario() *experiments.Scenario {
	cfg := experiments.DefaultConfig()
	cfg.Seed = networkSeed
	cfg.Workers = cpWorkers
	return experiments.NewScenario(cfg, nil)
}

// newFixture wires a data plane onto the scenario's network.
func newFixture(sc *experiments.Scenario) (*fixture, error) {
	dp, err := serve.NewDataPlane(sc.Net.G, []graph.NodeID{sc.Net.Origin})
	if err != nil {
		return nil, err
	}
	return &fixture{net: sc.Net, dp: dp}, nil
}

// sampleStream draws n lookups from spec's demand, rate-weighted.
func sampleStream(spec *placement.Spec, n int, r *rand.Rand) ([]lookupReq, error) {
	reqs := spec.Requests()
	cum := make([]float64, len(reqs))
	var total float64
	for k, rq := range reqs {
		total += spec.Rates[rq.Item][rq.Node]
		cum[k] = total
	}
	if total <= 0 {
		return nil, fmt.Errorf("sample lookups: spec has no demand")
	}
	out := make([]lookupReq, n)
	for k := range out {
		x := r.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		out[k] = lookupReq{item: reqs[lo].Item, node: reqs[lo].Node, pick: r.Uint64()}
	}
	return out, nil
}

// hourlyFixture builds the shared shape of the hourly workloads: horizon
// consecutive trace hours from the scenario's first evaluation hour, each
// materialized by Scenario.MakeRun with the seed as its Monte-Carlo
// request spread — the hourly inputs the online and fault experiments
// walk — and each hour's lookup stream.
func hourlyFixture(seed int64) (*fixture, error) {
	sc := scenario()
	fx, err := newFixture(sc)
	if err != nil {
		return nil, err
	}
	start := sc.Cfg.Hours[0]
	r := rand.New(rand.NewSource(seed))
	for h := 0; h < horizon; h++ {
		run, err := sc.MakeRun(experiments.RunParams{Hour: start + h, MCSeed: seed})
		if err != nil {
			return nil, fmt.Errorf("hour %d: %w", start+h, err)
		}
		stream, err := sampleStream(run.Truth, streamLen, r)
		if err != nil {
			return nil, err
		}
		fx.hours = append(fx.hours, &hour{
			in:     serve.PlanInput{Hour: h, Spec: run.Decision, Dist: run.Dist},
			stream: stream,
		})
	}
	return fx, nil
}

// driftFixture: hourly replanning over the trace's drifting demand on a
// healthy network, warm-started from the previous hour.
func driftFixture(seed int64) (*fixture, error) {
	fx, err := hourlyFixture(seed)
	if err != nil {
		return nil, err
	}
	// The online controller's planner: the Section 4.3.3 alternating
	// optimizer, warm-started hour to hour.
	fx.warm = strategy.MustNew("alternating", strategy.Options{
		Seed: 1, Workers: cpWorkers, WarmStart: true, BestEffort: true,
	})
	return fx, nil
}

// serveFixture: lookups racing live plan swaps. The control plane replans
// the trace hours continuously in its own goroutine with Algorithm 1 (a
// fast cold planner, so swaps are frequent) while lookups run.
func serveFixture(seed int64) (*fixture, error) {
	fx, err := hourlyFixture(seed)
	if err != nil {
		return nil, err
	}
	fx.warm = strategy.MustNew("alg1", strategy.Options{Workers: cpWorkers})
	fx.concurrent = true
	return fx, nil
}

// paperFixture: points of the paper's evaluation (Section 6), each solved
// cold as the evaluation harness does: Alg. 1 under unlimited link
// capacities (Fig. 5a) at three cache sizes, the alternating optimizer
// under IC-IR and IC-FR at the default 0.7% link capacity (Table 2, Figs.
// 7-8), and Alg. 2 under binary cache capacities (Fig. 6). The seed picks
// the evaluation hours and the Monte-Carlo request spreads.
func paperFixture(seed int64) (*fixture, error) {
	sc := scenario()
	fx, err := newFixture(sc)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	cold := func(name string, fractional bool) func() strategy.Strategy {
		return func() strategy.Strategy {
			return strategy.MustNew(name, strategy.Options{
				Seed: 1, Workers: cpWorkers, Fractional: fractional, NoSolverReuse: true,
			})
		}
	}
	for k := 0; k < paperHours*paperMC; k++ {
		hr, mc := r.Intn(100), r.Int63n(1<<30)
		add := func(p experiments.RunParams, newStrategy func() strategy.Strategy, binary bool) error {
			p.Mode, p.Hour, p.MCSeed = experiments.TrueDemand, hr, mc
			run, err := sc.MakeRun(p)
			if err != nil {
				return fmt.Errorf("paper point %+v: %w", p, err)
			}
			spec := run.Decision
			if binary {
				spec = binaryCaches(run)
			}
			stream, err := sampleStream(run.Truth, streamLen, r)
			if err != nil {
				return err
			}
			fx.hours = append(fx.hours, &hour{
				in:     serve.PlanInput{Hour: len(fx.hours), Spec: spec, Dist: run.Dist},
				stream: stream, newStrategy: newStrategy,
			})
			return nil
		}
		for _, zeta := range []float64{4, 12, 20} {
			if err := add(experiments.RunParams{CapacityFrac: -1, CacheSlots: zeta}, cold("alg1", false), false); err != nil {
				return nil, err
			}
		}
		if err := add(experiments.RunParams{}, cold("alternating", false), false); err != nil {
			return nil, err
		}
		if err := add(experiments.RunParams{}, cold("alternating", true), false); err != nil {
			return nil, err
		}
		if err := add(experiments.RunParams{}, cold("alg2", false), true); err != nil {
			return nil, err
		}
	}
	return fx, nil
}

// binaryCaches turns a run's decision spec into Fig. 6's binary-capacity
// instance: the origin plus one designated edge node store the entire
// catalog, every other cache is empty.
func binaryCaches(run *experiments.Run) *placement.Spec {
	s := *run.Decision
	s.CacheCap = make([]float64, len(s.CacheCap))
	var full float64
	for i := 0; i < s.NumItems; i++ {
		full += s.Size(i)
	}
	s.CacheCap[run.Scenario.Net.Edges[0]] = full
	return &s
}
