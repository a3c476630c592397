package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"jcr/internal/faults"
	"jcr/internal/graph"
	"jcr/internal/placement"
	"jcr/internal/strategy"
)

// countingStrategy wraps a strategy, counting Decide calls and optionally
// failing the first failN of them.
type countingStrategy struct {
	inner strategy.Strategy
	calls int
	failN int
}

func (p *countingStrategy) Name() string { return "counting-" + p.inner.Name() }

func (p *countingStrategy) Decide(ctx context.Context, inst strategy.Instance) (*strategy.Plan, strategy.Stats, error) {
	p.calls++
	if p.calls <= p.failN {
		return nil, strategy.Stats{}, errors.New("injected decide failure")
	}
	return p.inner.Decide(ctx, inst)
}

// rnr builds the registry's greedy + nearest-replica strategy.
func rnr() strategy.Strategy { return strategy.MustNew("rnr", strategy.Options{}) }

func planInputs(t *testing.T, s *placement.Spec, hours int) []PlanInput {
	t.Helper()
	dist := graph.AllPairs(s.G)
	inputs := make([]PlanInput, hours)
	for h := range inputs {
		inputs[h] = PlanInput{Hour: h, Spec: s, Dist: dist}
	}
	return inputs
}

func TestControlPlanePushes(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	now := int64(1000)
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Validate: true,
		Now:      func() int64 { now += 10; return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cp.Run(context.Background(), planInputs(t, s, 3))
	if err != nil {
		t.Fatal(err)
	}
	for h, rep := range reports {
		if rep.Outcome != StepPushed || rep.Err != nil {
			t.Fatalf("hour %d: %+v", h, rep)
		}
		if rep.Epoch != uint64(h)+1 {
			t.Fatalf("hour %d pushed epoch %d", h, rep.Epoch)
		}
	}
	if dp.Epoch() != 3 {
		t.Fatalf("installed epoch %d", dp.Epoch())
	}
	if age := dp.Snapshot(now).PlanAgeNanos; age != 0 {
		t.Fatalf("fresh plan age %d", age)
	}
}

func TestControlPlaneDecideFailureLeavesLastGood(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	// Hour 0 succeeds; hour 1's decide fails even after retries; hour 2
	// recovers. The data plane serves hour 0's plan throughout.
	pol := &countingStrategy{inner: rnr()}
	cp, err := NewControlPlaneForStrategy(pol, dp, ControlPlaneOptions{MaxRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	inputs := planInputs(t, s, 3)
	rep, err := cp.Step(context.Background(), inputs[0])
	if err != nil || rep.Outcome != StepPushed {
		t.Fatalf("hour 0: %+v, %v", rep, err)
	}
	pol.failN = pol.calls + 2 // both attempts of hour 1 fail
	rep, err = cp.Step(context.Background(), inputs[1])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != StepDecideFailed || rep.Err == nil || rep.Retries != 1 {
		t.Fatalf("hour 1: %+v", rep)
	}
	if dp.Epoch() != 1 {
		t.Fatalf("failed hour moved the installed epoch to %d", dp.Epoch())
	}
	if rt := dp.Lookup(0, 2, 0); rt.Kind != RoutePlan || rt.Epoch != 1 {
		t.Fatalf("traffic during the failed hour: %+v", rt)
	}
	rep, err = cp.Step(context.Background(), inputs[2])
	if err != nil || rep.Outcome != StepPushed {
		t.Fatalf("hour 2: %+v, %v", rep, err)
	}
	if dp.Epoch() != rep.Epoch || rep.Epoch <= 1 {
		t.Fatalf("recovery pushed epoch %d, installed %d", rep.Epoch, dp.Epoch())
	}
}

func TestControlPlaneSkipsDownHours(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	pol := &countingStrategy{inner: rnr()}
	cp, err := NewControlPlaneForStrategy(pol, dp, ControlPlaneOptions{
		Scenario: faults.ControlPlaneOutage(1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cp.Run(context.Background(), planInputs(t, s, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []StepOutcome{StepPushed, StepSkipped, StepSkipped, StepPushed}
	for h, rep := range reports {
		if rep.Outcome != want[h] {
			t.Fatalf("hour %d outcome %v, want %v", h, rep.Outcome, want[h])
		}
	}
	// A dead control plane computes nothing at all.
	if pol.calls != 2 {
		t.Fatalf("strategy ran %d times during a 2-hour outage window", pol.calls)
	}
	if dp.Epoch() != 2 {
		t.Fatalf("installed epoch %d after recovery", dp.Epoch())
	}
}

func TestControlPlaneCorruptedPushRejected(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{
		Scenario:    faults.CorruptedPush(1, 2),
		CorruptSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := cp.Run(context.Background(), planInputs(t, s, 4))
	if err != nil {
		t.Fatal(err)
	}
	want := []StepOutcome{StepPushed, StepRejected, StepRejected, StepPushed}
	for h, rep := range reports {
		if rep.Outcome != want[h] {
			t.Fatalf("hour %d outcome %v (err %v), want %v", h, rep.Outcome, rep.Err, want[h])
		}
	}
	// The corruption window pushed garbage twice; both were rejected and
	// traffic kept serving epoch 1 until the clean push of hour 3.
	m := dp.Snapshot(0)
	if m.RejectedPushes != 2 || m.Swaps != 2 {
		t.Fatalf("swap accounting %+v", m)
	}
	if dp.Epoch() != 4 {
		t.Fatalf("installed epoch %d, want the recovery push's 4", dp.Epoch())
	}
}

func TestControlPlaneCtxCancellation(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reports, err := cp.Run(ctx, planInputs(t, s, 3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Run returned %v", err)
	}
	if len(reports) != 0 {
		t.Fatalf("canceled Run produced %d reports", len(reports))
	}
}

func TestControlPlaneOptionValidation(t *testing.T) {
	s := testSpec(t)
	dp := testDataPlane(t, s)
	if _, err := NewControlPlaneForStrategy(nil, dp, ControlPlaneOptions{}); err == nil {
		t.Fatal("built a control plane without a strategy")
	}
	if _, err := NewControlPlaneForStrategy(rnr(), nil, ControlPlaneOptions{}); err == nil {
		t.Fatal("built a control plane without a data plane")
	}
	if _, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{MaxRetries: -1}); err == nil {
		t.Fatal("accepted negative retries")
	}
	cp, err := NewControlPlaneForStrategy(rnr(), dp, ControlPlaneOptions{DecideTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cp.Step(nil, planInputs(t, s, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome != StepDecideFailed {
		t.Fatalf("DecideTimeout without a context: %+v", rep)
	}
}
