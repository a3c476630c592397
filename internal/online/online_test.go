package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// alternating builds the registry's alternating strategy.
func alternating(o strategy.Options) strategy.Strategy { return strategy.MustNew("alternating", o) }

// buildHours makes a small multi-hour workload whose hot item flips
// between the two edge caches at hour 2, with a mild prediction error.
func buildHours(t *testing.T) []HourInput {
	t.Helper()
	g := graph.New(4)
	g.AddEdge(0, 1, 50, 100)
	g.AddEdge(1, 2, 2, 100)
	g.AddEdge(1, 3, 3, 100)
	dist := graph.AllPairs(g)
	mk := func(r0at2, r0at3, r1at2, r1at3 float64) *placement.Spec {
		return &placement.Spec{
			G:        g,
			NumItems: 2,
			CacheCap: []float64{0, 0, 1, 1},
			Pinned:   []graph.NodeID{0},
			Rates:    [][]float64{{0, 0, r0at2, r0at3}, {0, 0, r1at2, r1at3}},
		}
	}
	var hours []HourInput
	for h := 0; h < 4; h++ {
		var truth *placement.Spec
		if h < 2 {
			truth = mk(8, 1, 1, 6)
		} else {
			truth = mk(1, 6, 8, 1) // popularity flip
		}
		// Decision demand: truth with 10% noise.
		dec := mk(0, 0, 0, 0)
		rng := rand.New(rand.NewSource(int64(h)))
		for i := range truth.Rates {
			for v := range truth.Rates[i] {
				dec.Rates[i][v] = truth.Rates[i][v] * (1 + 0.1*rng.NormFloat64())
				if dec.Rates[i][v] < 0 {
					dec.Rates[i][v] = 0
				}
			}
		}
		hours = append(hours, HourInput{Hour: h, Decision: dec, Truth: truth, Dist: dist})
	}
	return hours
}

func TestSimulateAlternatingAdapts(t *testing.T) {
	hours := buildHours(t)
	adaptive, err := Run(nil, alternating(strategy.Options{Rng: rand.New(rand.NewSource(1))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	static, err := Run(nil, &strategy.Static{Inner: alternating(strategy.Options{Rng: rand.New(rand.NewSource(1))})}, hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Hours) != 4 || len(static.Hours) != 4 {
		t.Fatalf("hour counts: adaptive %d, static %d", len(adaptive.Hours), len(static.Hours))
	}
	// The popularity flips at hour 2: adapting must beat the frozen
	// decision overall.
	if adaptive.TotalCost() >= static.TotalCost() {
		t.Errorf("adaptive cost %v should beat static %v after the popularity flip",
			adaptive.TotalCost(), static.TotalCost())
	}
	// Static never churns; adaptive churns at the flip.
	if static.TotalChurn() != 0 {
		t.Errorf("static churn = %d, want 0", static.TotalChurn())
	}
	if adaptive.TotalChurn() == 0 {
		t.Error("adaptive policy should move items at the popularity flip")
	}
	// First hour never counts churn.
	if adaptive.Hours[0].Churn != 0 {
		t.Errorf("first-hour churn = %d, want 0", adaptive.Hours[0].Churn)
	}
}

func TestWarmStartReducesChurn(t *testing.T) {
	hours := buildHours(t)
	cold, err := Run(nil, alternating(strategy.Options{Rng: rand.New(rand.NewSource(2))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(nil, alternating(strategy.Options{WarmStart: true, Rng: rand.New(rand.NewSource(2))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalChurn() > cold.TotalChurn() {
		t.Errorf("warm-start churn %d should not exceed cold churn %d", warm.TotalChurn(), cold.TotalChurn())
	}
}

func TestBaselinePolicies(t *testing.T) {
	hours := buildHours(t)
	for _, pol := range []strategy.Strategy{
		strategy.MustNew("sp", strategy.Options{}),
		strategy.MustNew("ksp", strategy.Options{}),
		strategy.MustNew("rnr", strategy.Options{}),
		alternating(strategy.Options{Fractional: true, Rng: rand.New(rand.NewSource(3))}),
	} {
		s, err := Run(nil, pol, hours, Options{})
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if s.Strategy != pol.Name() || len(s.Hours) != len(hours) {
			t.Errorf("%s: malformed series", pol.Name())
		}
		for _, h := range s.Hours {
			if h.Cost < 0 || math.IsNaN(h.Cost) || math.IsNaN(h.Congestion) {
				t.Errorf("%s hour %d: bad metrics %+v", pol.Name(), h.Hour, h)
			}
		}
	}
}

func TestSeriesAggregates(t *testing.T) {
	s := &Series{Strategy: "x", Hours: []HourMetrics{
		{Cost: 10, Congestion: 1, Churn: 2},
		{Cost: 20, Congestion: 3, Churn: 0},
	}}
	if s.TotalCost() != 30 || s.MeanCongestion() != 2 || s.TotalChurn() != 2 {
		t.Errorf("aggregates wrong: %v %v %v", s.TotalCost(), s.MeanCongestion(), s.TotalChurn())
	}
	empty := &Series{}
	if empty.MeanCongestion() != 0 {
		t.Error("empty series mean congestion should be 0")
	}
}

func TestSimulateErrorPropagation(t *testing.T) {
	// An hour whose decision spec is broken must surface the strategy
	// error with context, not panic.
	g := graph.New(2)
	g.AddEdge(0, 1, 1, 10)
	bad := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0}, // wrong length
		Rates:    [][]float64{{0, 1}},
	}
	_, err := Run(nil, alternating(strategy.Options{}), []HourInput{{
		Hour: 0, Decision: bad, Truth: bad, Dist: graph.AllPairs(g),
	}}, Options{})
	if err == nil {
		t.Fatal("broken spec accepted")
	}
}

func TestEvaluateOnTruthUnanticipated(t *testing.T) {
	// The decision served nothing (empty paths, empty placement beyond
	// the pinned origin): every true request must fall back to RNR.
	g := graph.New(2)
	g.AddEdge(0, 1, 4, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 2}},
	}
	dec := &strategy.Plan{Placement: s.NewPlacement()}
	ev, err := evaluateOnTruth(HourInput{Truth: s, Dist: graph.AllPairs(g)}, dec, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.cost != 8 {
		t.Errorf("fallback cost = %v, want 8", ev.cost)
	}
	if ev.demand != 2 || ev.unserved != 0 {
		t.Errorf("demand/unserved = %v/%v, want 2/0", ev.demand, ev.unserved)
	}
	if ev.unanticipated != 2 {
		t.Errorf("unanticipated = %v, want 2 (nothing was decided)", ev.unanticipated)
	}
}

// scriptedStrategy is a strategy that runs a per-call function, for
// fault-injection tests.
type scriptedStrategy struct {
	name  string
	calls int
	fn    func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error)
}

func (p *scriptedStrategy) Name() string { return p.name }

func (p *scriptedStrategy) Decide(ctx context.Context, inst strategy.Instance) (*strategy.Plan, strategy.Stats, error) {
	call := p.calls
	p.calls++
	plan, err := p.fn(call, ctx, inst.Spec, inst.Dist)
	return plan, strategy.Stats{Iterations: 1}, err
}

// decide runs st on one spec, dropping the stats.
func decide(ctx context.Context, st strategy.Strategy, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
	plan, _, err := st.Decide(ctx, strategy.Instance{Spec: spec, Dist: dist})
	return plan, err
}

// TestFaultResilientIdleIsBitForBit: with no faults and no failing
// decisions, the hardened Run must reproduce the strict zero-options series
// exactly — same costs, congestion, and churn at every hour.
func TestFaultResilientIdleIsBitForBit(t *testing.T) {
	hours := buildHours(t)
	strict, err := Run(nil, alternating(strategy.Options{WarmStart: true, Rng: rand.New(rand.NewSource(7))}), hours, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Run(context.Background(), alternating(strategy.Options{WarmStart: true, Rng: rand.New(rand.NewSource(7))}),
		hours, Options{Resilient: true, Retry: strategy.Retry{MaxRetries: 2, Validate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hard.Hours) != len(strict.Hours) {
		t.Fatalf("hour counts differ: %d vs %d", len(hard.Hours), len(strict.Hours))
	}
	for i := range strict.Hours {
		a, b := strict.Hours[i], hard.Hours[i]
		if a.Cost != b.Cost || a.Congestion != b.Congestion || a.Churn != b.Churn {
			t.Errorf("hour %d diverges: strict %+v, resilient %+v", a.Hour, a, b)
		}
		if b.Source != SourceFresh || b.Retries != 0 {
			t.Errorf("hour %d: source %v retries %d, want fresh/0", b.Hour, b.Source, b.Retries)
		}
		if b.Unserved != 0 {
			t.Errorf("hour %d: unserved %v on an intact network", b.Hour, b.Unserved)
		}
	}
	if hard.ServedFraction() != 1 || hard.DegradedHours() != 0 || hard.LongestOutage() != 0 {
		t.Errorf("idle run reports degradation: served %v, degraded %d, outage %d",
			hard.ServedFraction(), hard.DegradedHours(), hard.LongestOutage())
	}
}

// TestFaultTimeoutDegradesToLastKnownGood: when Decide blocks past its
// deadline, the hour must run on the last-known-good placement (stale),
// and the next successful decision must be marked repaired.
func TestFaultTimeoutDegradesToLastKnownGood(t *testing.T) {
	hours := buildHours(t)
	good := hours[0].Decision.NewPlacement()
	good.Stores[2][0] = true // cache the hot item at edge node 2
	pol := &scriptedStrategy{
		name: "block-on-second",
		fn: func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
			if call == 1 || call == 2 { // hours 1 and 2 hang until the deadline
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return &strategy.Plan{Placement: good.Clone()}, nil
		},
	}
	series, err := Run(context.Background(), pol, hours, Options{
		Resilient: true,
		Retry:     strategy.Retry{DecideTimeout: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantSources := []DecisionSource{SourceFresh, SourceStale, SourceStale, SourceRepaired}
	for i, h := range series.Hours {
		if h.Source != wantSources[i] {
			t.Errorf("hour %d source = %v, want %v", h.Hour, h.Source, wantSources[i])
		}
	}
	// The stale hours must reuse the hour-0 placement bit for bit (no
	// capacity changed, so no eviction), hence zero churn.
	if series.Hours[1].Churn != 0 || series.Hours[2].Churn != 0 {
		t.Errorf("stale hours churned: %d, %d — last-known-good not reused",
			series.Hours[1].Churn, series.Hours[2].Churn)
	}
	if got := series.DegradedHours(); got != 2 {
		t.Errorf("DegradedHours = %d, want 2", got)
	}
	if got := series.LongestOutage(); got != 2 {
		t.Errorf("LongestOutage = %d, want 2", got)
	}
	// Strict mode must surface the timeout instead of degrading.
	pol2 := &scriptedStrategy{name: "block-always", fn: func(int, context.Context, *placement.Spec, [][]float64) (*strategy.Plan, error) {
		return nil, context.DeadlineExceeded
	}}
	if _, err := Run(context.Background(), pol2, hours[:1], Options{Retry: strategy.Retry{DecideTimeout: time.Millisecond}}); err == nil {
		t.Error("strict run swallowed a decision failure")
	}
}

// TestFaultTimeoutRequiresContext: a decide deadline without a parent
// context is a configuration error, not a silent no-op.
func TestFaultTimeoutRequiresContext(t *testing.T) {
	hours := buildHours(t)
	_, err := Run(nil, alternating(strategy.Options{}), hours, Options{Retry: strategy.Retry{DecideTimeout: time.Second}})
	if err == nil {
		t.Fatal("nil context with DecideTimeout accepted")
	}
}

// TestFaultRetryRecovers: transient decision failures within MaxRetries
// must yield a fresh decision and record the attempts.
func TestFaultRetryRecovers(t *testing.T) {
	hours := buildHours(t)[:1]
	good := hours[0].Decision.NewPlacement()
	pol := &scriptedStrategy{
		name: "flaky",
		fn: func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
			if call < 2 {
				return nil, fmt.Errorf("transient failure %d", call)
			}
			return &strategy.Plan{Placement: good.Clone()}, nil
		},
	}
	series, err := Run(context.Background(), pol, hours, Options{Resilient: true, Retry: strategy.Retry{MaxRetries: 2}})
	if err != nil {
		t.Fatal(err)
	}
	h := series.Hours[0]
	if h.Source != SourceFresh || h.Retries != 2 {
		t.Errorf("source %v retries %d, want fresh after 2 retries", h.Source, h.Retries)
	}
	// One retry fewer must exhaust the budget and degrade instead.
	pol.calls = 0
	series, err = Run(context.Background(), pol, hours, Options{Resilient: true, Retry: strategy.Retry{MaxRetries: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if series.Hours[0].Source != SourceStale {
		t.Errorf("source %v, want stale when retries are exhausted", series.Hours[0].Source)
	}
}

// TestFaultValidateRejectsInfeasible: a decision violating cache
// capacities must be treated as a failure (degraded under Resilient,
// fatal otherwise).
func TestFaultValidateRejectsInfeasible(t *testing.T) {
	hours := buildHours(t)[:1]
	pol := &scriptedStrategy{
		name: "overfull",
		fn: func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
			pl := spec.NewPlacement()
			pl.Stores[2][0] = true
			pl.Stores[2][1] = true // capacity 1: infeasible
			return &strategy.Plan{Placement: pl}, nil
		},
	}
	if _, err := Run(context.Background(), pol, hours, Options{Retry: strategy.Retry{Validate: true}}); err == nil {
		t.Error("strict validating run accepted an infeasible placement")
	}
	pol.calls = 0
	series, err := Run(context.Background(), pol, hours, Options{Resilient: true, Retry: strategy.Retry{Validate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if series.Hours[0].Source != SourceStale {
		t.Errorf("source %v, want stale after validation failure", series.Hours[0].Source)
	}
}

// TestFaultUnservedAccounting: on a partitioned network, best-effort
// evaluation accounts stranded demand as unserved instead of erroring,
// and ServedFraction reflects it.
func TestFaultUnservedAccounting(t *testing.T) {
	// Node 2 is isolated: no arcs at all reach it.
	g := graph.New(3)
	g.AddEdge(0, 1, 1, 10)
	s := &placement.Spec{
		G:        g,
		NumItems: 1,
		CacheCap: []float64{0, 0, 0},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 3, 1}},
	}
	hour := HourInput{Hour: 0, Decision: s, Truth: s, Dist: graph.AllPairs(g)}
	pol := &scriptedStrategy{name: "origin-only", fn: func(int, context.Context, *placement.Spec, [][]float64) (*strategy.Plan, error) {
		return &strategy.Plan{Placement: s.NewPlacement()}, nil
	}}
	series, err := Run(context.Background(), pol, []HourInput{hour}, Options{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	h := series.Hours[0]
	if h.Demand != 4 || h.Unserved != 1 {
		t.Errorf("demand/unserved = %v/%v, want 4/1", h.Demand, h.Unserved)
	}
	if got, want := series.ServedFraction(), 0.75; math.Abs(got-want) > 1e-12 {
		t.Errorf("ServedFraction = %v, want %v", got, want)
	}
	// Strict evaluation must keep erroring on stranded demand.
	if _, err := Run(context.Background(), pol, []HourInput{hour}, Options{}); err == nil {
		t.Error("strict run served a partitioned network silently")
	}
}

// TestFaultFallbackEvictsToDegradedCapacity: when the hour's caches are
// smaller than the last-known-good placement, the fallback must evict to
// fit rather than apply an infeasible placement.
func TestFaultFallbackEvictsToDegradedCapacity(t *testing.T) {
	hours := buildHours(t)[:2]
	// Hour 1's caches fail: capacity zero at both edge nodes.
	degraded := *hours[1].Decision
	degraded.CacheCap = []float64{0, 0, 0, 0}
	hours[1].Decision = &degraded
	tr := *hours[1].Truth
	tr.CacheCap = degraded.CacheCap
	hours[1].Truth = &tr
	good := hours[0].Decision.NewPlacement()
	good.Stores[2][0] = true
	pol := &scriptedStrategy{
		name: "fail-second",
		fn: func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
			if call > 0 {
				return nil, fmt.Errorf("controller down")
			}
			return &strategy.Plan{Placement: good.Clone()}, nil
		},
	}
	series, err := Run(context.Background(), pol, hours, Options{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	h := series.Hours[1]
	if h.Source != SourceStale {
		t.Fatalf("hour 1 source = %v, want stale", h.Source)
	}
	// The cached copy at node 2 was lost with the cache: one eviction,
	// counted as churn against hour 0.
	if h.Churn != 1 {
		t.Errorf("hour 1 churn = %d, want 1 (the evicted entry)", h.Churn)
	}
}

// TestTreeReuseIsBitForBit: the shortest-path-tree engine must be
// invisible in the series. An online run over a faulty horizon — links
// failing, degrading, and recovering, every truth request served through
// the nearest-replica fallback — must equal the same run with every tree
// computed cold, field for field.
func TestTreeReuseIsBitForBit(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 1, 10)
	g.AddEdge(1, 2, 2, 10)
	g.AddEdge(2, 3, 1, 10)
	g.AddEdge(3, 4, 2, 10)
	g.AddEdge(0, 4, 3, 10)
	g.AddEdge(1, 3, 2, 10)
	sc := &faults.Scenario{Events: []faults.Event{
		{Kind: faults.LinkDown, Start: 1, Duration: 2, Link: 5},
		{Kind: faults.LinkDown, Start: 2, Duration: 2, Link: 0},
		{Kind: faults.LinkDegrade, Start: 3, Duration: 1, Link: 2, Factor: 0.5},
	}}
	mk := func() *placement.Spec {
		return &placement.Spec{
			G: g, NumItems: 2,
			CacheCap: []float64{0, 1, 1, 1, 0},
			Pinned:   []graph.NodeID{0},
			Rates:    [][]float64{{0, 0, 2, 1, 3}, {0, 1, 0, 2, 1}},
		}
	}
	var hours []HourInput
	for h := 0; h < 5; h++ {
		dec, tr, _, err := sc.Apply(h, mk(), mk())
		if err != nil {
			t.Fatal(err)
		}
		hours = append(hours, HourInput{Hour: h, Decision: dec, Truth: tr, Dist: graph.AllPairs(dec.G)})
	}
	// The decision never plans any serving, so every request of every hour
	// goes through the nearest-replica trees the engine caches.
	pol := func() strategy.Strategy {
		return &scriptedStrategy{name: "origin-only", fn: func(_ int, _ context.Context, spec *placement.Spec, _ [][]float64) (*strategy.Plan, error) {
			return &strategy.Plan{Placement: spec.NewPlacement()}, nil
		}}
	}
	warm, err := Run(context.Background(), pol(), hours, Options{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(context.Background(), pol(), hours, Options{Resilient: true, NoTreeReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Fatalf("tree reuse changed the series:\nwarm %+v\ncold %+v", warm, cold)
	}
	var touched float64
	for _, h := range warm.Hours {
		touched += h.Unanticipated + h.Unserved
	}
	if touched == 0 {
		t.Fatal("horizon never exercised the fallback trees")
	}
}

// TestRunFirstHourDecideFails: when the very first hour's Decide fails
// there is no last-known-good placement; the resilient fallback must run
// the hour on the pinned-only placement (origin serves everything) and the
// controller must report recovery on the next hour.
func TestRunFirstHourDecideFails(t *testing.T) {
	hours := buildHours(t)
	inner := alternating(strategy.Options{Rng: rand.New(rand.NewSource(3))})
	pol := &scriptedStrategy{
		name: "first-hour-dead",
		fn: func(call int, ctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
			if call == 0 {
				return nil, fmt.Errorf("injected first-hour failure")
			}
			return decide(ctx, inner, spec, dist)
		},
	}
	series, err := Run(context.Background(), pol, hours, Options{Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Hours) != len(hours) {
		t.Fatalf("ran %d hours", len(series.Hours))
	}
	h0 := series.Hours[0]
	if h0.Source != SourceStale {
		t.Fatalf("hour 0 source %v, want stale", h0.Source)
	}
	// Pinned-only fallback: every request is served from the origin, so
	// the hour's cost is the full origin-distance volume and nothing is
	// unserved on the intact network.
	if h0.Unserved != 0 {
		t.Fatalf("hour 0 unserved %v on an intact network", h0.Unserved)
	}
	var want float64
	truth := hours[0].Truth
	for _, rq := range truth.Requests() {
		want += truth.Rates[rq.Item][rq.Node] * hours[0].Dist[0][rq.Node]
	}
	if math.Abs(h0.Cost-want) > 1e-9*(1+want) {
		t.Fatalf("hour 0 cost %v, pinned-only fallback costs %v", h0.Cost, want)
	}
	if series.Hours[1].Source != SourceRepaired {
		t.Fatalf("hour 1 source %v, want repaired", series.Hours[1].Source)
	}
	if series.DegradedHours() != 1 || series.LongestOutage() != 1 {
		t.Fatalf("degradation accounting: %d degraded, longest %d",
			series.DegradedHours(), series.LongestOutage())
	}
}

// TestRunCtxCanceledMidRun: cancellation between hours aborts the walk
// with context.Canceled — resilient or not, since resilience covers
// decision failures, never the caller pulling the plug.
func TestRunCtxCanceledMidRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"strict", Options{}},
		{"resilient", Options{Resilient: true, Retry: strategy.Retry{MaxRetries: 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hours := buildHours(t)
			ctx, cancel := context.WithCancel(context.Background())
			const stopAfter = 2
			pol := &scriptedStrategy{
				name: "self-canceling",
				fn: func(call int, dctx context.Context, spec *placement.Spec, dist [][]float64) (*strategy.Plan, error) {
					if call == stopAfter {
						// The caller goes away while hour 2's decision is
						// in flight.
						cancel()
					}
					return decide(dctx, strategy.MustNew("rnr", strategy.Options{}), spec, dist)
				},
			}
			series, err := Run(ctx, pol, hours, tc.opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
			if series != nil {
				t.Fatalf("canceled Run returned a series")
			}
			if pol.calls != stopAfter+1 {
				t.Fatalf("policy ran %d times after cancellation at call %d", pol.calls, stopAfter)
			}
		})
	}
}
