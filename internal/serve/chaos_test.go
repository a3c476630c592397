package serve

import (
	"context"
	"testing"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/par"
	"jcr/internal/placement"
	"jcr/internal/rng"
)

// chaosInputs builds a drifting multi-hour workload on a mesh: demand
// rotates around the edge caches hour over hour, so every control-plane
// cycle genuinely reshapes the plan.
func chaosInputs(t *testing.T, hours int) (*placement.Spec, []PlanInput) {
	t.Helper()
	n, items := 6, 3
	g := graph.New(n)
	g.AddEdge(0, 1, 20, 100)
	g.AddEdge(1, 2, 2, 100)
	g.AddEdge(1, 3, 3, 100)
	g.AddEdge(2, 4, 2, 100)
	g.AddEdge(3, 5, 2, 100)
	g.AddEdge(4, 5, 4, 100)
	dist := graph.AllPairs(g)
	mk := func(h int) *placement.Spec {
		rates := make([][]float64, items)
		r := rng.Derive(17, int64(h))
		for i := range rates {
			rates[i] = make([]float64, n)
			for v := 2; v < n; v++ {
				// Rotate the hot item across requesters with the hour.
				rates[i][v] = 1 + 9*r.Float64()
				if (v+h)%items == i {
					rates[i][v] *= 3
				}
			}
		}
		return &placement.Spec{
			G:        g,
			NumItems: items,
			CacheCap: []float64{0, 0, 1, 1, 1, 1},
			Pinned:   []graph.NodeID{0},
			Rates:    rates,
		}
	}
	inputs := make([]PlanInput, hours)
	for h := range inputs {
		inputs[h] = PlanInput{Hour: h, Spec: mk(h), Dist: dist}
	}
	return mk(0), inputs
}

// TestChaosControlPlaneKilledMidRun is the headline robustness test: the
// control plane dies partway through the run (a faults.ControlPlaneOutage
// covering the back half) and every hour's load — before, during, and
// after the outage — must resolve 100% of lookups.
func TestChaosControlPlaneKilledMidRun(t *testing.T) {
	const hours = 8
	spec0, inputs := chaosInputs(t, hours)
	dp, err := NewDataPlane(spec0.G, spec0.Pinned)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Validate: true,
		Scenario: faults.ControlPlaneOutage(hours/2, hours), // dead until the end
	})
	if err != nil {
		t.Fatal(err)
	}
	var total LoadStats
	for h, in := range inputs {
		rep, err := cp.Step(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		if h >= hours/2 && rep.Outcome != StepSkipped {
			t.Fatalf("hour %d: control plane should be dead, got %v", h, rep.Outcome)
		}
		st, err := RunLoad(context.Background(), dp, in.Spec, 5000, 4, int64(h))
		if err != nil {
			t.Fatal(err)
		}
		if st.Unresolved != 0 {
			t.Fatalf("hour %d: %d of %d lookups unresolved", h, st.Unresolved, st.Lookups)
		}
		total.Add(st)
	}
	if total.ResolvedFraction() != 1 {
		t.Fatalf("resolved fraction %v, want exactly 1", total.ResolvedFraction())
	}
	// The data plane froze at the last pre-outage plan and kept serving
	// from it (the new hours' demand still hits the old plan's coverage).
	if dp.Epoch() != uint64(hours/2) {
		t.Fatalf("installed epoch %d, want the last pre-outage push %d", dp.Epoch(), hours/2)
	}
	if m := dp.Snapshot(0); m.PlanServed == 0 {
		t.Fatalf("no lookups served from the plan: %+v", m)
	}
}

// TestChaosColdStartWithDeadControlPlane kills the control plane before it
// ever pushes: all traffic must resolve through the fail-safe table alone.
func TestChaosColdStartWithDeadControlPlane(t *testing.T) {
	const hours = 3
	spec0, inputs := chaosInputs(t, hours)
	dp, err := NewDataPlane(spec0.G, spec0.Pinned)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Scenario: faults.ControlPlaneOutage(0, hours),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cp.Run(context.Background(), inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Outcome != StepSkipped {
			t.Fatalf("hour %d: %v", rep.Hour, rep.Outcome)
		}
	}
	st, err := RunLoad(context.Background(), dp, spec0, 10000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unresolved != 0 || st.Plan != 0 || st.Failsafe != st.Lookups {
		t.Fatalf("cold-start stats %+v", st)
	}
}

// TestChaosCorruptedPushMidRun corrupts every push in a mid-run window.
// Swap validation must reject each one, traffic must keep resolving from
// the last-known-good plan, and the first clean push must recover.
func TestChaosCorruptedPushMidRun(t *testing.T) {
	const hours = 8
	spec0, inputs := chaosInputs(t, hours)
	dp, err := NewDataPlane(spec0.G, spec0.Pinned)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Validate:    true,
		Scenario:    faults.CorruptedPush(2, 3),
		CorruptSeed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var total LoadStats
	goodEpoch := uint64(0)
	for h, in := range inputs {
		rep, err := cp.Step(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case h >= 2 && h < 5:
			if rep.Outcome != StepRejected {
				t.Fatalf("hour %d: corrupted push was %v", h, rep.Outcome)
			}
			if dp.Epoch() != goodEpoch {
				t.Fatalf("hour %d: corrupted push moved the epoch to %d", h, dp.Epoch())
			}
		default:
			if rep.Outcome != StepPushed {
				t.Fatalf("hour %d: %v (err %v)", h, rep.Outcome, rep.Err)
			}
			goodEpoch = rep.Epoch
		}
		st, err := RunLoad(context.Background(), dp, in.Spec, 5000, 4, 100+int64(h))
		if err != nil {
			t.Fatal(err)
		}
		if st.Unresolved != 0 {
			t.Fatalf("hour %d: %d lookups unresolved", h, st.Unresolved)
		}
		total.Add(st)
	}
	m := dp.Snapshot(0)
	if m.RejectedPushes != 3 {
		t.Fatalf("rejected %d pushes, want 3: %+v", m.RejectedPushes, m)
	}
	if total.ResolvedFraction() != 1 {
		t.Fatalf("resolved fraction %v", total.ResolvedFraction())
	}
}

// TestChaosConcurrentLoadAndSwaps races the full control-plane loop —
// including an outage and a corruption window — against concurrent load
// generators under par.Group supervision. Every lookup must resolve no
// matter how swaps, rejections, and reads interleave (run under -race in
// CI's chaos job).
func TestChaosConcurrentLoadAndSwaps(t *testing.T) {
	const hours = 6
	spec0, inputs := chaosInputs(t, hours)
	dp, err := NewDataPlane(spec0.G, spec0.Pinned)
	if err != nil {
		t.Fatal(err)
	}
	sc := faults.Merge("cp-chaos",
		faults.ControlPlaneOutage(2, 1),
		faults.CorruptedPush(4, 1),
	)
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Validate:    true,
		Scenario:    sc,
		CorruptSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	grp, ctx := par.NewGroup(context.Background())
	var reports []StepReport
	grp.Go(func(ctx context.Context) error {
		var err error
		reports, err = cp.Run(ctx, inputs)
		return err
	})
	stats := make([]LoadStats, 3)
	for w := range stats {
		w := w
		grp.Go(func(ctx context.Context) error {
			st, err := RunLoad(ctx, dp, spec0, 30000, 2, int64(w))
			stats[w] = st
			return err
		})
	}
	if err := grp.Wait(); err != nil {
		t.Fatal(err)
	}
	_ = ctx
	var total LoadStats
	for _, st := range stats {
		total.Add(st)
	}
	if total.Unresolved != 0 || total.ResolvedFraction() != 1 {
		t.Fatalf("concurrent chaos stats %+v", total)
	}
	if len(reports) != hours {
		t.Fatalf("control plane ran %d of %d hours", len(reports), hours)
	}
	outcomes := make([]StepOutcome, hours)
	for h, rep := range reports {
		outcomes[h] = rep.Outcome
	}
	want := []StepOutcome{StepPushed, StepPushed, StepSkipped, StepPushed, StepRejected, StepPushed}
	for h := range want {
		if outcomes[h] != want[h] {
			t.Fatalf("outcomes %v, want %v", outcomes, want)
		}
	}
}
