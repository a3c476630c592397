package strategy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"jcr/internal/graph"
	"jcr/internal/placement"
)

// attemptFn scripts one Decide attempt of scriptStrategy.
type attemptFn func(ctx context.Context, inst Instance) (*Plan, error)

// scriptStrategy runs script[k] on its k-th Decide call, repeating the
// last entry once the script runs out.
type scriptStrategy struct {
	script []attemptFn
	calls  int
}

func (s *scriptStrategy) Name() string { return "script" }

func (s *scriptStrategy) Decide(ctx context.Context, inst Instance) (*Plan, Stats, error) {
	fn := s.script[min(s.calls, len(s.script)-1)]
	s.calls++
	plan, err := fn(ctx, inst)
	return plan, Stats{Iterations: 1}, err
}

// retrySpec is a two-node instance: origin 0 serves node 1, whose cache
// holds one of the two items.
func retrySpec() *placement.Spec {
	g := graph.New(2)
	g.AddEdge(0, 1, 3, 10)
	return &placement.Spec{
		G:        g,
		NumItems: 2,
		CacheCap: []float64{0, 1},
		Pinned:   []graph.NodeID{0},
		Rates:    [][]float64{{0, 2}, {0, 1}},
	}
}

// TestFaultRetryLoop drives the shared decide loop through its attempt,
// backoff, cancellation, and validation paths.
func TestFaultRetryLoop(t *testing.T) {
	spec := retrySpec()
	inst := Instance{Spec: spec}
	good, _, err := (&RNR{}).Decide(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	overfull := spec.NewPlacement()
	overfull.Stores[1][0], overfull.Stores[1][1] = true, true // capacity 1

	ok := func(context.Context, Instance) (*Plan, error) { return good, nil }
	fail := func(msg string) attemptFn {
		return func(context.Context, Instance) (*Plan, error) { return nil, errors.New(msg) }
	}
	const backoff = 7 * time.Millisecond
	errSleep := errors.New("sleep interrupted")

	for _, tc := range []struct {
		name   string
		loop   Retry
		script []attemptFn
		// sleepErr, when set, makes the injected Sleep fail.
		sleepErr error
		// cancelOnCall cancels the parent ctx inside that (1-based) call.
		cancelOnCall int
		nilCtx       bool

		wantPlan   bool
		wantFailed int // failed attempts reported
		wantCalls  int
		wantSleeps int
		wantErr    string // substring; empty means no error
		wantIs     error
	}{
		{
			name: "first attempt succeeds without sleeping",
			loop: Retry{MaxRetries: 2, Backoff: backoff}, script: []attemptFn{ok},
			wantPlan: true, wantCalls: 1,
		},
		{
			name: "backoff between retries only",
			loop: Retry{MaxRetries: 2, Backoff: backoff}, script: []attemptFn{fail("a"), fail("b"), ok},
			wantPlan: true, wantFailed: 2, wantCalls: 3, wantSleeps: 2,
		},
		{
			name: "exhausted retries return the last error",
			loop: Retry{MaxRetries: 2, Backoff: backoff}, script: []attemptFn{fail("a"), fail("b"), fail("c")},
			wantFailed: 2, wantCalls: 3, wantSleeps: 2, wantErr: "c",
		},
		{
			name: "zero backoff never sleeps",
			loop: Retry{MaxRetries: 1}, script: []attemptFn{fail("a"), ok},
			wantPlan: true, wantFailed: 1, wantCalls: 2,
		},
		{
			name: "sleep error stops retrying",
			loop: Retry{MaxRetries: 3, Backoff: backoff}, script: []attemptFn{fail("a"), ok},
			sleepErr:   errSleep,
			wantFailed: 1, wantCalls: 1, wantSleeps: 1, wantErr: "a",
		},
		{
			name: "nil plan and nil placement are failed attempts",
			loop: Retry{MaxRetries: 2},
			script: []attemptFn{
				func(context.Context, Instance) (*Plan, error) { return nil, nil },
				func(context.Context, Instance) (*Plan, error) { return &Plan{}, nil },
				ok,
			},
			wantPlan: true, wantFailed: 2, wantCalls: 3,
		},
		{
			name: "nil plans exhaust the budget",
			loop: Retry{MaxRetries: 1},
			script: []attemptFn{
				func(context.Context, Instance) (*Plan, error) { return &Plan{}, nil },
			},
			wantFailed: 1, wantCalls: 2, wantErr: "no plan",
		},
		{
			name: "canceled parent ctx stops retrying",
			loop: Retry{MaxRetries: 3, Backoff: backoff},
			script: []attemptFn{func(ctx context.Context, _ Instance) (*Plan, error) {
				return nil, ctx.Err()
			}},
			cancelOnCall: 1,
			wantCalls:    1, wantIs: context.Canceled,
		},
		{
			name: "per-attempt deadline expires and the retry succeeds",
			loop: Retry{DecideTimeout: time.Millisecond, MaxRetries: 1},
			script: []attemptFn{
				func(ctx context.Context, _ Instance) (*Plan, error) {
					<-ctx.Done()
					return nil, ctx.Err()
				},
				ok,
			},
			wantPlan: true, wantFailed: 1, wantCalls: 2,
		},
		{
			name: "deadline without a ctx fails every attempt",
			loop: Retry{DecideTimeout: time.Second, MaxRetries: 1}, script: []attemptFn{ok},
			nilCtx:     true,
			wantFailed: 1, wantCalls: 0, wantErr: "non-nil context",
		},
		{
			name: "validate rejects an infeasible plan without retrying",
			loop: Retry{MaxRetries: 2, Validate: true},
			script: []attemptFn{func(context.Context, Instance) (*Plan, error) {
				return &Plan{Placement: overfull, Paths: good.Paths}, nil
			}},
			wantCalls: 1, wantErr: "invalid decision",
		},
		{
			name: "validate accepts a feasible plan",
			loop: Retry{Validate: true}, script: []attemptFn{ok},
			wantPlan: true, wantCalls: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := &scriptStrategy{script: tc.script}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancelOnCall > 0 {
				inner := st.script[0]
				st.script = []attemptFn{func(c context.Context, in Instance) (*Plan, error) {
					if st.calls == tc.cancelOnCall {
						cancel()
					}
					return inner(c, in)
				}}
			}
			// The k-th sleep must come after the k-th attempt: never
			// before the first one.
			var sleeps []time.Duration
			var callsAtSleep []int
			tc.loop.Sleep = func(_ context.Context, d time.Duration) error {
				sleeps = append(sleeps, d)
				callsAtSleep = append(callsAtSleep, st.calls)
				return tc.sleepErr
			}
			runCtx := context.Context(ctx)
			if tc.nilCtx {
				runCtx = nil
			}
			plan, failed, err := tc.loop.Decide(runCtx, st, inst)

			if (plan != nil) != tc.wantPlan {
				t.Errorf("plan = %v, want plan %v", plan, tc.wantPlan)
			}
			if failed != tc.wantFailed {
				t.Errorf("failed attempts = %d, want %d", failed, tc.wantFailed)
			}
			if st.calls != tc.wantCalls {
				t.Errorf("Decide calls = %d, want %d", st.calls, tc.wantCalls)
			}
			if len(sleeps) != tc.wantSleeps {
				t.Errorf("sleeps = %v, want %d", sleeps, tc.wantSleeps)
			}
			wantAt := make([]int, len(sleeps))
			for k := range sleeps {
				if sleeps[k] != backoff {
					t.Errorf("sleep %d waited %v, want %v", k, sleeps[k], backoff)
				}
				wantAt[k] = k + 1
			}
			if len(sleeps) > 0 && !reflect.DeepEqual(callsAtSleep, wantAt) {
				t.Errorf("sleeps after calls %v, want %v", callsAtSleep, wantAt)
			}
			switch {
			case tc.wantIs != nil:
				if !errors.Is(err, tc.wantIs) {
					t.Errorf("err = %v, want %v", err, tc.wantIs)
				}
			case tc.wantErr == "":
				if err != nil {
					t.Errorf("err = %v, want nil", err)
				}
			case err == nil || !strings.Contains(err.Error(), tc.wantErr):
				t.Errorf("err = %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestBaselinesNeedOneOrigin: the fixed-path baselines root their paths at
// the spec's single pinned node and refuse specs with none or several.
func TestBaselinesNeedOneOrigin(t *testing.T) {
	for _, pinned := range [][]graph.NodeID{nil, {0, 1}} {
		spec := retrySpec()
		spec.Pinned = pinned
		for _, name := range []string{"sp", "ksp"} {
			_, _, err := MustNew(name, Options{}).Decide(context.Background(), Instance{Spec: spec})
			if err == nil || !strings.Contains(err.Error(), "exactly one pinned origin") {
				t.Errorf("%s with %d pinned nodes: err = %v", name, len(pinned), err)
			}
		}
	}
}

// TestStaticReplaysFirstPlan: Static decides once and replays that plan.
func TestStaticReplaysFirstPlan(t *testing.T) {
	spec := retrySpec()
	inner := &scriptStrategy{script: []attemptFn{
		func(context.Context, Instance) (*Plan, error) { return nil, fmt.Errorf("cold start") },
		func(_ context.Context, in Instance) (*Plan, error) {
			return &Plan{Placement: in.Spec.NewPlacement()}, nil
		},
	}}
	st := &Static{Inner: inner}
	if _, _, err := st.Decide(context.Background(), Instance{Spec: spec}); err == nil {
		t.Fatal("Static hid its inner strategy's error")
	}
	first, _, err := st.Decide(context.Background(), Instance{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := st.Decide(context.Background(), Instance{Spec: retrySpec()})
	if err != nil || again != first {
		t.Fatalf("Static re-decided: %p vs %p (%v)", again, first, err)
	}
	if inner.calls != 2 {
		t.Fatalf("inner strategy ran %d times, want 2", inner.calls)
	}
}
